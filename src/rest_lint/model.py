"""Normalized model of an OpenAPI/Swagger document.

Both Swagger 2.0 and OpenAPI 3.x inputs (JSON or YAML) are loaded into
one internal shape so rule checkers are written once. Besides the spec
id and the loader's diagnostics, the model holds
only the facts the checkers read: path templates, each operation's
method, operationId, summary and description, request media types,
response status keys with their media types, query parameter names and
whether it requires credentials. Loading degrades gracefully:
structural oddities (duplicate paths, missing responses, unresolvable
references) become diagnostics instead of hard failures. The model is
immutable after load and safe to share across checkers.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
import types
from collections.abc import Iterable, Mapping
from pathlib import Path
from typing import Any, BinaryIO, NamedTuple

from .errors import NotAnApiSpec, ParseError

HTTP_METHODS = ("GET", "POST", "PUT", "DELETE", "PATCH", "HEAD", "OPTIONS", "TRACE")

_METHOD_KEYS = {m.lower(): m for m in HTTP_METHODS}
# Swagger 2.0 path items define no trace operation.
_SWAGGER2_METHOD_KEYS = {k: m for k, m in _METHOD_KEYS.items() if m != "TRACE"}
_STATUS_KEY = re.compile(r"^[0-9X]{3}$")
_TOKEN = r"[0-9A-Za-z!#$%&'*+.^_`|~-]+"
_MEDIA_TYPE = re.compile(rf"^{_TOKEN}/{_TOKEN}(\s*;.*)?$")
# One shared empty set: each frozenset() call makes a new one, and an
# OpenAPI 3 response without content would hold its own.
_NO_MEDIA: frozenset[str] = frozenset()
_MAX_REF_DEPTH = 32
# Operations, responses and parameters one document may build, an aliased or
# $ref-shared node each time it is used, so that aliases cannot grow the model
# with the expanded document. 5.06 times the 82,947 of the perfbench lint-json
# spec; low enough that a 113 KB file expanding to 4 million responses exits
# in under a second.
_MAX_MODEL_NODES = 420_000


class OperationRecord(NamedTuple):
    operation_id: str | None
    summary: str | None
    description: str | None
    has_request_body: bool
    request_media_types: frozenset[str]
    responses: dict[str, frozenset[str]]  # status key -> declared media types
    requires_credentials: bool
    query_parameter_names: tuple[str, ...]


class PathEntry(NamedTuple):
    operations: dict[str, OperationRecord]


class ApiSpecification(NamedTuple):
    spec_id: str
    paths: dict[str, PathEntry]
    diagnostics: tuple[str, ...] = ()


def load_spec(source: bytes | BinaryIO, spec_id: str) -> ApiSpecification:
    """Parse a JSON or YAML API description into the normalized model.

    Raises ParseError for undecodable/unparseable input and NotAnApiSpec
    for documents with neither a ``paths`` section nor a version marker.
    """
    data = source if isinstance(source, bytes) else source.read()
    diagnostics: list[str] = []  # the parser's, then the builder's
    doc = _parse_document(data, diagnostics)
    if not isinstance(doc, dict):
        raise NotAnApiSpec("document is not a JSON/YAML object")
    try:
        return _build_spec(doc, spec_id, diagnostics)
    except ValueError as exc:  # str() of a long YAML integer not written in decimal
        raise ParseError(f"number too long: {exc}") from exc


def load_spec_file(path: str | Path, spec_id: str | None = None) -> ApiSpecification:
    """Load a spec from disk; spec_id defaults to the given path."""
    p = Path(path)
    return load_spec(p.read_bytes(), spec_id if spec_id is not None else str(path))


# ---------------------------------------------------------------------------
# Document parsing (JSON first, then YAML), keeping track of duplicate keys.
# ---------------------------------------------------------------------------


class _KeyedDict(dict):
    """Mapping whose text repeats a key: the first value is kept, the repeats recorded."""

    __slots__ = ("repeats",)
    repeats: list[Any]  # appended to as they are read, so that each costs O(1)

    @property
    def duplicate_keys(self) -> tuple[Any, ...]:
        return tuple(self.repeats)


def _repeat(mapping: dict[Any, Any], key: Any) -> _KeyedDict:
    """The one rule for a key met again in a mapping: its first value stays, and the
    key joins duplicate_keys, in text order. A second "<<" is handed over."""
    if key is _MERGE:
        raise _HandOver
    if type(mapping) is dict:
        mapping = _KeyedDict(mapping)
        mapping.repeats = []
    mapping.repeats.append(key)
    return mapping


def _keyed_from_pairs(pairs: list[tuple[Any, Any]]) -> dict[Any, Any]:
    mapping = dict(pairs)  # keeps the last value of a repeated key
    if len(mapping) != len(pairs):
        mapping = {}
        for key, value in pairs:
            if key in mapping:
                mapping = _repeat(mapping, key)
            else:
                mapping[key] = value
    return mapping


def _merge(mapping: dict[Any, Any], value: Any) -> None:
    """The one rule for a "<<" value, a mapping or a list of mappings: explicit keys
    win over merged ones wherever they stand, and of merged mappings the earlier one
    wins, so a merged key is never a duplicate."""
    for source in value if isinstance(value, list) else [value]:
        for merged_key, merged_value in source.items():  # fails on a non-mapping
            mapping.setdefault(merged_key, merged_value)


_MAP_TAG, _SEQ_TAG = "tag:yaml.org,2002:map", "tag:yaml.org,2002:seq"
_MERGE_TAG = "tag:yaml.org,2002:merge"
_MERGE = object()  # a "<<" key until its mapping is built
_OPEN = object()  # anchor table entry of a container still open
_ABSENT = object()  # a key not yet read, or a line record's key or value where it has none
_MAX_EVENT_DEPTH = 100  # deeper documents are left to the pure-Python loader

# LibYAML reads tabs and a byte order mark inside the text where the
# pure-Python scanner fails or reads otherwise (a tab between tokens or inside
# a plain scalar), so the event loop leaves text with either to that scanner.
_PURE_PYTHON_CHARS = "\t\ufeff"
# LibYAML also reads a "#" right after a block scalar header, which the
# pure-Python scanner rejects. Compiled where first used, in the event loop.
_BLOCK_HEADER_COMMENT = r"[|>](?:[-+]?[1-9]?|[1-9][-+])#"
# Text that starts like a JSON object or array; matched in place, not copied.
_JSON_START = re.compile(r"\s*[{\[]")
# Text whose first character after JSON's white space starts a JSON value. On any
# other text json.loads fails at that character, and its message is shown only
# where _JSON_START matches, so such text goes to YAML without importing json.
_JSON_VALUE_START = re.compile(r'[ \t\n\r]*(?:[{\["0-9]|-[0-9I]|true|false|null|NaN|Infinity)')


@functools.cache
def _pure_loader() -> Any:
    """PyYAML's pure-Python SafeLoader, filling each mapping in place by _repeat,
    then merging its "<<" sources by _merge, as the fast readers do: the fallback,
    and the parser whose errors stand. Built, and PyYAML imported, on first need."""
    import yaml

    class _DupSafeLoader(yaml.SafeLoader):
        def construct_keyed_mapping(self, node: Any) -> dict[Any, Any]:
            mapping: dict[Any, Any] = {}
            merged: list[Any] = []  # the "<<" sources, in text order
            for key_node, value_node in node.value:
                if key_node.tag == _MERGE_TAG:
                    is_list = isinstance(value_node, yaml.SequenceNode)
                    sources = value_node.value if is_list else [value_node]
                    if not all(isinstance(source, yaml.MappingNode) for source in sources):
                        raise yaml.constructor.ConstructorError(
                            "while constructing a mapping", node.start_mark,
                            "expected a mapping or list of mappings for merging",
                            value_node.start_mark,
                        )
                    merged += [self.construct_object(source, deep=True) for source in sources]
                    continue
                key = self.construct_object(key_node, deep=True)
                try:
                    hash(key)
                except TypeError:
                    key = str(key)
                value = self.construct_object(value_node, deep=True)
                if key in mapping:
                    mapping = _repeat(mapping, key)
                else:
                    mapping[key] = value
            _merge(mapping, merged)
            return mapping

    _DupSafeLoader.add_constructor(_MAP_TAG, _DupSafeLoader.construct_keyed_mapping)
    return _DupSafeLoader


class _HandOver(Exception):
    """A fast reader leaves the text to the next one, or to the pure-Python loader."""


@functools.cache
def _scalar_loader() -> Any:
    import yaml

    return yaml.SafeLoader("")  # constructs scalars; holds no document


def _scalar(tag: str, text: str) -> Any:
    if tag == _MERGE_TAG:
        return _MERGE
    import yaml

    loader = _scalar_loader()
    # KeyError for a tag SafeLoader does not construct ("!", "!local", "!!value"...).
    value = loader.yaml_constructors[tag](loader, yaml.ScalarNode(tag, text))
    if isinstance(value, types.GeneratorType):  # a collection tag on a scalar
        raise _HandOver
    return value


# yaml/resolver.py's implicit resolvers, by which SafeLoader resolves a plain
# scalar, copied verbatim and in its order: tag, pattern, flags and first
# characters. A test pins them to SafeLoader's own table.
_IMPLICIT_RESOLVERS = (
    ("tag:yaml.org,2002:bool", r'''^(?:yes|Yes|YES|no|No|NO
                    |true|True|TRUE|false|False|FALSE
                    |on|On|ON|off|Off|OFF)$''', re.X, list('yYnNtTfFoO')),
    ("tag:yaml.org,2002:float", r'''^(?:[-+]?(?:[0-9][0-9_]*)\.[0-9_]*(?:[eE][-+][0-9]+)?
                    |\.[0-9][0-9_]*(?:[eE][-+][0-9]+)?
                    |[-+]?[0-9][0-9_]*(?::[0-5]?[0-9])+\.[0-9_]*
                    |[-+]?\.(?:inf|Inf|INF)
                    |\.(?:nan|NaN|NAN))$''', re.X, list('-+0123456789.')),
    ("tag:yaml.org,2002:int", r'''^(?:[-+]?0b[0-1_]+
                    |[-+]?0[0-7_]+
                    |[-+]?(?:0|[1-9][0-9_]*)
                    |[-+]?0x[0-9a-fA-F_]+
                    |[-+]?[1-9][0-9_]*(?::[0-5]?[0-9])+)$''', re.X, list('-+0123456789')),
    ("tag:yaml.org,2002:merge", r'^(?:<<)$', 0, ['<']),
    ("tag:yaml.org,2002:null", r'''^(?: ~
                    |null|Null|NULL
                    | )$''', re.X, ['~', 'n', 'N', '']),
    ("tag:yaml.org,2002:timestamp", r'''^(?:[0-9][0-9][0-9][0-9]-[0-9][0-9]-[0-9][0-9]
                    |[0-9][0-9][0-9][0-9] -[0-9][0-9]? -[0-9][0-9]?
                     (?:[Tt]|[ \t]+)[0-9][0-9]?
                     :[0-9][0-9] :[0-9][0-9] (?:\.[0-9]*)?
                     (?:[ \t]*(?:Z|[-+][0-9][0-9]?(?::[0-9][0-9])?))?)$''', re.X,
     list('0123456789')),
    ("tag:yaml.org,2002:value", r'^(?:=)$', 0, ['=']),
    ("tag:yaml.org,2002:yaml", r'^(?:!|&|\*)$', 0, list('!&*')),
)

# yaml/scanner.py's Scanner.ESCAPE_REPLACEMENTS, which decodes a double-quoted
# scalar's one-character escapes, copied verbatim. A test pins it to the scanner's.
_ESCAPE_REPLACEMENTS = {
    "0": "\0", "a": "\x07", "b": "\x08", "t": "\x09", "\t": "\x09", "n": "\x0A",
    "v": "\x0B", "f": "\x0C", "r": "\x0D", "e": "\x1B", " ": "\x20", '"': '"',
    "\\": "\\", "/": "/", "N": "\x85", "_": "\xA0", "L": "\u2028", "P": "\u2029",
}


@functools.cache
def _implicit_resolvers() -> dict[str, list[tuple[str, re.Pattern[str]]]]:
    """_IMPLICIT_RESOLVERS compiled and keyed by first character, as SafeLoader keys them."""
    table: dict[str, list[tuple[str, re.Pattern[str]]]] = {}
    for tag, pattern, flags, first in _IMPLICIT_RESOLVERS:
        compiled = re.compile(pattern, flags)
        for char in first:
            table.setdefault(char, []).append((tag, compiled))
    return table


_NUMBERS = {"tag:yaml.org,2002:int": int, "tag:yaml.org,2002:float": float}


def _number(token: str, kind: type) -> Any:
    """An int or float token's value, built as SafeConstructor's construct_yaml_int
    and construct_yaml_float build it: underscores dropped, a sign, 0b, 0x and
    leading-0 octal ints, base 60 ("1:30"), .inf and .nan."""
    value = token.replace("_", "")
    if kind is float:
        value = value.lower()
    sign = -1 if value[0] == "-" else 1
    if value[0] in "+-":
        value = value[1:]
    if value == ".inf":
        return sign * math.inf
    if value == ".nan":
        return math.nan
    if kind is int and value[0] == "0" and value != "0":
        if value[1] in "bx":
            return sign * int(value[2:], 2 if value[1] == "b" else 16)
        return sign * int(value, 8)
    if ":" not in value:
        return sign * kind(value)
    total, base = kind(0), 1
    for part in reversed(value.split(":")):
        total += kind(part) * base
        base *= 60
    return sign * total


def _plain(token: str) -> Any:
    """A plain scalar's value, resolved as SafeLoader resolves it. A string, bool,
    null, int, float, date or "<<" is built here; a timestamp with a time, or
    "=", needs PyYAML's constructors."""
    for tag, pattern in _implicit_resolvers().get(token[:1], ()):
        if pattern.match(token):
            if tag == "tag:yaml.org,2002:bool":
                return token.lower() in ("yes", "true", "on")
            if tag == "tag:yaml.org,2002:null":
                return None
            if tag in _NUMBERS:
                return _number(token, _NUMBERS[tag])
            if tag == "tag:yaml.org,2002:timestamp" and len(token) == 10:  # YYYY-MM-DD
                import datetime  # as construct_yaml_timestamp builds a date

                return datetime.date(int(token[:4]), int(token[5:7]), int(token[8:]))
            return _scalar(tag, token)
    return token


# Compiled where first used, so that a run on JSON alone never compiles it.
_ESCAPE = r"\\(?:x([0-9A-Fa-f]{2})|u([0-9A-Fa-f]{4})|U([0-9A-Fa-f]{8})|(.))"


def _unescape(match: re.Match[str]) -> str:
    """A double-quoted escape, decoded as the pure-Python scanner decodes it."""
    code = match.group(1) or match.group(2) or match.group(3)
    if code:
        return chr(int(code, 16))
    return _ESCAPE_REPLACEMENTS[match.group(4)]


class _Scalars(dict):
    """One document's scalar values by token, each made once: a quoted token is
    decoded, a plain one resolved and constructed by its text alone, as SafeLoader
    does. No value is mutable, so nodes may share one."""

    def __missing__(self, token: str) -> Any:
        first = token[:1]
        if first == "'":
            value = token[1:-1].replace("''", "'")
        elif first == '"':
            text = token[1:-1]
            value = re.compile(_ESCAPE).sub(_unescape, text) if "\\" in text else text
        else:
            value = _plain(token)
        self[token] = value
        return value


def _yaml_from_events(text: str) -> Any:
    """Build the document in one loop over LibYAML's events, with no recursion.

    Raises where the pure-Python loader might read the text otherwise, or
    fail on it, or where PyYAML lacks LibYAML; README lists the cases.
    """
    import yaml

    if not yaml.__with_libyaml__ or any(char in text for char in _PURE_PYTHON_CHARS):
        raise _HandOver
    loader = yaml.CSafeLoader(text)
    get_event = loader.get_event
    scalars = _Scalars()
    anchors: dict[str, Any] = {}
    stack: list[tuple[Any, bool, bool, Any, str | None]] = []
    # The open node: its dict or list, whether it is a mapping, whether it is in flow
    # style, and a mapping's key that awaits a value. The root is a list that holds
    # the document. Each stack entry holds a node's parent, as these four, and its anchor.
    node, is_map, flow, key = [], False, False, _ABSENT
    try:
        get_event()  # stream start
        event = get_event()
        if isinstance(event, yaml.StreamEndEvent):
            return None
        if event.version or event.tags:
            raise _HandOver  # a directive, which LibYAML may end with "#"
        while True:
            event = get_event()
            kind = type(event)
            if kind is yaml.ScalarEvent:
                value, tag = event.value, event.tag
                if not event.style:  # plain
                    if flow and (not value or "?" in value):
                        raise _HandOver  # LibYAML may read it otherwise
                    if tag is None:
                        value = scalars[value]
                elif event.style in "|>" and re.compile(_BLOCK_HEADER_COMMENT).match(
                        text, text.find(event.style, event.start_mark.index)):
                    raise _HandOver
                if tag is not None:
                    value = _scalar(tag, value)
                anchor = event.anchor
                if value is _MERGE and (not is_map or key is not _ABSENT or anchor is not None):
                    raise _HandOver  # "<<" other than as a plain mapping key
                if anchor is not None:
                    if anchor in anchors:
                        raise _HandOver  # PyYAML fails on a repeated anchor
                    anchors[anchor] = value
            elif kind is yaml.MappingStartEvent or kind is yaml.SequenceStartEvent:
                tag, anchor, opens_map = event.tag, event.anchor, kind is yaml.MappingStartEvent
                if tag is not None and tag != (_MAP_TAG if opens_map else _SEQ_TAG):
                    raise _HandOver
                if len(stack) == _MAX_EVENT_DEPTH or anchor in anchors:
                    raise _HandOver
                if anchor is not None:
                    anchors[anchor] = _OPEN
                stack.append((node, is_map, flow, key, anchor))
                is_map, flow, key = opens_map, event.flow_style, _ABSENT
                node = {} if is_map else []
                continue
            elif kind is yaml.MappingEndEvent or kind is yaml.SequenceEndEvent:
                value = node
                if is_map and _MERGE in value:
                    _merge(value, value.pop(_MERGE))
                node, is_map, flow, key, anchor = stack.pop()
                if anchor is not None:
                    anchors[anchor] = value
            elif kind is yaml.AliasEvent:
                value = anchors.get(event.anchor, _OPEN)
                if value is _OPEN:
                    raise _HandOver  # undefined, or a container still open
            else:  # document end
                if not isinstance(get_event(), yaml.StreamEndEvent):
                    raise _HandOver
                return node[0]
            # The value is whole. An unhashable (complex) key raises TypeError: PyYAML
            # keys it by its str() before an aliased sequence in it may be filled.
            if not is_map:
                node.append(value)
            elif key is _ABSENT:
                key = value
            else:
                if key in node:
                    node = _repeat(node, key)
                else:
                    node[key] = value
                key = _ABSENT
    finally:
        loader.dispose()


# Block-style YAML, one line without its "\n" a full match: indentation, "- "
# entries, a "key:" and a one-line plain or quoted scalar, {} or [], then a
# comment and the "\r" of a "\r\n". The last group takes any other line, such
# as "---", a multi-line scalar or a character the pure-Python reader rejects,
# and hands the text over. Its classes exclude only Latin-1 characters: one
# with a wider character costs ~0.5 ms to compile, so the wider ones are looked
# for in the whole text instead.
_NOT_TEXT = "\\x00-\\x1f\\x7f-\\x9f"
# A tab is text inside a quoted scalar or a comment, as the pure-Python scanner reads it.
_NOT_INNER = "\\x00-\\x08\\x0a-\\x1f\\x7f-\\x9f"
_WIDE_NOT_TEXT = "\u2028\u2029\ufeff\ufffe\uffff"  # line breaks, or rejected
_PLAIN_REST = f"[^ :{_NOT_TEXT}]*(?::(?=[^ {_NOT_TEXT}])[^ :{_NOT_TEXT}]*)*"  # ": " ends it
_PLAIN = (f"(?:[^ \\-?:,\\[\\]{{}}#&*!|>'\"%@`{_NOT_TEXT}]|[-?:](?=[^ {_NOT_TEXT}])){_PLAIN_REST}"
          f"(?: +(?:[^ :#{_NOT_TEXT}]|:(?=[^ {_NOT_TEXT}])){_PLAIN_REST})*")  # and so does " #"
_QUOTED = (f"'[^'{_NOT_INNER}]*(?:''[^'{_NOT_INNER}]*)*'"
           f"|\"[^\"\\\\{_NOT_INNER}]*(?:\\\\[^{_NOT_INNER}][^\"\\\\{_NOT_INNER}]*)*\"")
_COMMENT = f"(?<![^ \\n])#[^{_NOT_INNER}]*"  # after a space: "a#b" is one scalar
# Compiled where first used, as are the two patterns below, so that a run on
# JSON alone never compiles them.
_BLOCK_LINE = (
    "(?!(?:---|\\.\\.\\.)(?:[ \\r]|\\Z))( *)((?:-(?: +|(?=\\r?\\Z)))*)"
    f"(?:((?:{_PLAIN}|{_QUOTED}) *):(?: +|(?=\\r?\\Z)))?({_PLAIN}|{_QUOTED}|\\{{}}|\\[])?"
    f" *(?:{_COMMENT})?\\r?|(.*)"
)
# Blank and comment lines, then "---" alone on its line, at the start of the text.
_DOCUMENT_START = f"(?: *(?:{_COMMENT})?\\r?\\n)*---(?: +(?:{_COMMENT})?)?\\r?(?:\\n|\\Z)"
# A block scalar, anchor, alias, tag, complex key or flow collection starts
# with one of these where a node can: at a line's content, or after ":" or "-"
# and spaces. Found there, it hands the text over before a line is read, so that
# none is read twice; after other text, as in "a: x > y", it is plain text. Each
# a substring test, then a literal-prefix search, far cheaper than a class search.
_NODE_STARTS = tuple((char, re.escape(char) + "(?<![^ \\n].)(?![\\]}])") for char in "|>&*!?[{")


# The line reader splits the text this many characters at a time, so that no
# list holds every line. Its memo, one for every document a process reads, as
# uri._segment's cache is, holds the records of at most _LINE_MEMO distinct line
# texts (that cache's size) of at most _LINE_CHARS characters; a new line met
# when it is full clears it, at no cost per line. Threads may share it: a record
# depends on its text alone, and a race at the bound adds at most one per thread.
_LINE_SLICE = 1 << 16
_LINE_MEMO = 4096
_LINE_CHARS = 256
_LINE_RECORDS: dict[str, tuple[Any, ...]] = {}
_BLANK = ()  # the record of a blank or comment line
_END = (-1, (), -1, _ABSENT, _ABSENT)  # the record after the last line
_EMPTY = {"{}": dict, "[]": list}  # a record's value for these, built anew at each use


def _lines(text: str, pos: int) -> Iterable[str]:
    """text[pos:].split("\n"), split a slice of about _LINE_SLICE characters at a time."""

    def slices() -> Iterable[list[str]]:
        start = pos
        while (end := text.find("\n", start + _LINE_SLICE)) >= 0:
            yield text[start:end].split("\n")
            start = end + 1
        yield text[start:].split("\n")

    return itertools.chain.from_iterable(slices())


def _yaml_from_lines(text: str) -> Any:
    """Build a block-style document line by line, with no recursion, storing each
    value in its mapping or sequence once it is whole: each distinct line text is
    matched and digested once per process, into a record kept in _LINE_RECORDS.

    Takes block mappings and sequences of one-line plain and quoted scalars,
    {} and [], and comments, and raises _HandOver at anything else. Scalars
    resolve through a _Scalars table, and nesting stops at _MAX_EVENT_DEPTH, as
    in _yaml_from_events. An implicit key past 1,024 characters, which the
    pure-Python scanner rejects, is handed over. The text is decoded UTF-8,
    so it holds no lone surrogate, which that scanner rejects too.
    """
    for char, start in _NODE_STARTS:
        for hit in re.compile(start).finditer(text) if char in text else ():
            at = hit.start() - 1
            while at >= 0 and text[at] == " ":  # back over the spaces before the hit
                at -= 1
            if at < 0 or text[at] in "\n:-":
                raise _HandOver
    if not text.isascii() and any(char in text for char in _WIDE_NOT_TEXT):
        raise _HandOver
    scalars = _Scalars()
    stack: list[tuple[int, Any, bool, bool, Any]] = []
    # The open node: its column, its dict or list, whether it is a mapping, whether
    # it is a sequence at its key's column, and a mapping's key that awaits a value.
    # The root is a column -1 list that holds the document.
    col, node, is_map, indentless, key_wait = -1, [], False, False, None
    slot = True  # the open node awaits a value: the document, a key's or an entry's
    last = None  # the last line's value, stored when the next line does not open a node
    start = re.compile(_DOCUMENT_START).match(text)
    match = re.compile(_BLOCK_LINE).fullmatch
    # A line's text -> _BLANK, or its record: its column, each "- "'s column, its
    # key's column, and its key and value built or _ABSENT ({} and [] as their
    # types). Every value is immutable, so documents may share a record.
    memo = _LINE_RECORDS
    for line in itertools.chain(_lines(text, start.end() if start else 0), (None,)):
        record = memo.get(line)
        if record is None:
            if line is None:  # the end of the text, which closes every node
                record = _END
            else:
                indent, dashes, key, value, other = match(line).groups()
                if other is not None or key is not None and len(key) > 1024 or value == "<<":
                    raise _HandOver  # a line it does not read, a key too long, a plain "<<" value
                at = len(indent)
                record = _BLANK if key is None and value is None and not dashes else (
                    at, tuple(at + i for i, char in enumerate(dashes) if char == "-") if dashes else (),
                    at + len(dashes), _ABSENT if key is None else scalars[key.rstrip(" ")],
                    _ABSENT if value is None else _EMPTY.get(value) or scalars[value])
                if len(line) <= _LINE_CHARS:
                    if len(memo) >= _LINE_MEMO:
                        memo.clear()
                    memo[line] = record
        if record is _BLANK:
            continue
        at, dashes, key_col, key, value = record
        # The line's first node is the open node's value, or else its next key or entry.
        opens = slot and (at > col or at == col and is_map and dashes)
        if not opens:  # the open node's value, the last line's or an empty one, is whole
            while True:  # store it, then each node the line closes, in its parent
                if not is_map:
                    node.append(last)
                elif key_wait in node:
                    node = _repeat(node, key_wait)
                else:
                    node[key_wait] = last
                if not (at < col or indentless and at == col and not dashes):
                    break
                last = node
                if is_map and _MERGE in last:
                    _merge(last, last.pop(_MERGE))
                col, node, is_map, indentless, key_wait = stack.pop()
            if at != col or (is_map if dashes else not is_map or key is _ABSENT):
                if record is _END:
                    return node[0]
                raise _HandOver  # misaligned, a continued scalar, or the wrong node
        if dashes:  # most lines have none, and the test is cheaper than an empty loop
            for dash in dashes:
                if opens or dash != at:  # each "- " opens a sequence
                    stack.append((col, node, is_map, indentless, key_wait))
                    col, node, is_map, indentless = dash, [], False, dash == col
        if key is not _ABSENT:
            if opens or dashes:  # the first key of a mapping
                stack.append((col, node, is_map, indentless, key_wait))
                col, node, is_map, indentless = key_col, {}, True, False
            key_wait = key
        empty = value is dict or value is list  # {} or [], one container more
        if len(stack) + empty > _MAX_EVENT_DEPTH:
            raise _HandOver
        slot = value is _ABSENT
        last = value() if empty else None if slot else value


# False leaves all text to the pure-Python loader: the one seam tests use.
_FAST_YAML = True


def _load_yaml(text: str) -> Any:
    """Build the document line by line, else from LibYAML's events, else parse
    it in pure Python.

    Whatever the line reader leaves goes to the event loop, and whatever the
    event loop leaves, or either fails on, is parsed again by _DupSafeLoader,
    whose result or error stands, so every diagnostic is the pure-Python parser's.
    """
    if _FAST_YAML:
        for read in (_yaml_from_lines, _yaml_from_events):
            try:
                return read(text)
            except _HandOver:
                continue
            except Exception:
                break
    import yaml

    return yaml.load(text, Loader=_pure_loader())


def _parse_document(data: bytes, diagnostics: list[str] | None = None) -> Any:
    """The document's JSON reading, else its YAML reading. JSON-looking text
    read as YAML adds a note to diagnostics, where given."""
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ParseError(f"input is not valid UTF-8: {exc}") from exc

    json_start = _JSON_START.match(text)
    if json_start or _JSON_VALUE_START.match(text):
        import json

        try:
            return json.loads(text, object_pairs_hook=_keyed_from_pairs)
        except json.JSONDecodeError as exc:
            # Keep the message, not the exception: its traceback holds this frame, so
            # binding it here would make a reference cycle that keeps the YAML
            # document parsed below alive until a full garbage collection.
            msg, line, column = exc.msg, exc.lineno, exc.colno
        except RecursionError as exc:
            raise ParseError("document nesting too deep") from exc
        except ValueError as exc:  # a number beyond Python's limit on integer digits
            raise ParseError(f"invalid JSON: {exc}") from exc
    try:
        doc = _load_yaml(text)
    except RecursionError as exc:
        raise ParseError("document nesting too deep") from exc
    except Exception as yaml_exc:  # parser layer: any other failure is a parse error
        if json_start:
            raise ParseError(
                f"invalid JSON: {msg}", position=f"line {line} column {column}"
            ) from yaml_exc
        mark = getattr(yaml_exc, "problem_mark", None)
        position = f"line {mark.line + 1} column {mark.column + 1}" if mark else None
        import yaml  # the pure-Python loader, which raised it, imported it

        if isinstance(yaml_exc, yaml.reader.ReaderError):  # str() gives the offset a 2nd line
            problem = str(yaml_exc).partition("\n")[0]
            position = f"character {yaml_exc.position + 1}"
        else:
            problem = getattr(yaml_exc, "problem", None) or str(yaml_exc) or "unreadable document"
        raise ParseError(f"invalid YAML: {problem}", position=position) from yaml_exc
    if diagnostics is not None and json_start:
        diagnostics.append(f"not valid JSON ({msg} at line {line} column {column}); read as YAML")
    return doc


# ---------------------------------------------------------------------------
# Model construction. Both parsers build every mapping as a dict (a _KeyedDict
# only where a key repeats), so the builder tests for dict, not the Mapping ABC.
# ---------------------------------------------------------------------------

class _Build:
    """The document, what its root declares for every operation, and the diagnostics."""

    def __init__(self, root: Mapping[str, Any], diagnostics: list[str]) -> None:
        self.root = root
        self.swagger2 = False  # else OpenAPI 3
        self.consumes: frozenset[str] = _NO_MEDIA  # root media lists, inherited in Swagger 2
        self.produces: frozenset[str] = _NO_MEDIA
        self.requires_credentials = False  # the root's security, where an operation has none
        self.diagnostics = diagnostics
        self.status_keys: dict[str | int, str | None] = {}
        # Content keys, in order, -> their media types, for key sets that raised no diagnostic.
        self.content_media: dict[tuple[Any, ...], frozenset[str]] = {}
        self.built = 0  # operations, responses and parameters, a shared node each time used

    def diag(self, message: str) -> None:
        self.diagnostics.append(message)

    def deref(self, node: Any, where: str, detail: str = "", sep: str = " ") -> Any:
        """Resolve chained local $ref pointers; remote refs yield {}. A diagnostic's
        context, where + sep + detail, is formatted only once a $ref is followed."""
        if not (isinstance(node, dict) and "$ref" in node):
            return node
        context = f"{where}{sep}{detail}" if detail else where
        depth = 0
        while isinstance(node, dict) and "$ref" in node:
            ref = node["$ref"]
            if depth >= _MAX_REF_DEPTH:
                self.diag(f"{context}: $ref chain too deep or cyclic, treated as empty")
                return {}
            if not isinstance(ref, str) or not ref.startswith("#/"):
                self.diag(f"{context}: non-local $ref {ref!r} not resolved, treated as empty")
                return {}
            target: Any = self.root
            for part in ref[2:].split("/"):
                part = part.replace("~1", "/").replace("~0", "~")
                if isinstance(target, dict) and part in target:
                    target = target[part]
                else:
                    self.diag(f"{context}: $ref {ref!r} does not resolve, treated as empty")
                    return {}
            node = target
            depth += 1
        return node

    def count(self, nodes: int) -> None:
        """Count nodes about to be built; past _MAX_MODEL_NODES the document is refused."""
        self.built += nodes
        if self.built > _MAX_MODEL_NODES:
            raise ParseError(f"model too large: more than {_MAX_MODEL_NODES} operations, "
                             "responses and parameters, an alias or shared $ref counted "
                             "each time it is used")

    def status_key(self, status: Any) -> str | None:
        """_normalize_status_key, memoized for str and int keys only: True, 1 and
        1.0 are one dict key, but read "True", "1" and "1.0"."""
        if type(status) is not str and type(status) is not int:
            return _normalize_status_key(status)
        if status not in self.status_keys:
            self.status_keys[status] = _normalize_status_key(status)
        return self.status_keys[status]


def _build_spec(doc: Mapping[str, Any], spec_id: str, diagnostics: list[str]) -> ApiSpecification:
    build = _Build(doc, diagnostics)

    swagger = doc.get("swagger")
    if swagger is not None and str(swagger).startswith("2"):
        build.swagger2 = True
    elif "openapi" in doc or "swagger" in doc:
        if "openapi" not in doc:
            build.diag(f"unrecognized swagger version {swagger!r}; treating as OpenAPI 3")
    elif "paths" in doc:
        build.diag("no 'swagger'/'openapi' version marker; assuming OpenAPI 3")
    else:
        raise NotAnApiSpec("no 'paths' section and no 'swagger'/'openapi' version marker")

    build.requires_credentials = _requires_credentials(doc.get("security"))
    build.consumes = _media_list(doc.get("consumes"), build, "root", "consumes")
    build.produces = _media_list(doc.get("produces"), build, "root", "produces")

    paths: dict[str, PathEntry] = {}
    raw_paths = doc.get("paths")
    if raw_paths is None:
        raw_paths = {}
    if not isinstance(raw_paths, dict):
        build.diag("'paths' is not a mapping; treated as empty")
        raw_paths = {}
    for dup in getattr(raw_paths, "duplicate_keys", []):
        build.diag(f"duplicate path template {dup!r}; first occurrence kept")

    for raw_key, item in raw_paths.items():
        template = str(raw_key)
        if not template.startswith("/"):
            build.diag(f"path template {template!r} does not begin with '/'")
        if template in paths:
            build.diag(f"duplicate path template {template!r}; first occurrence kept")
            continue
        paths[template] = _build_path_entry(template, item, build)

    return ApiSpecification(
        spec_id=spec_id,
        paths=paths,
        diagnostics=tuple(build.diagnostics),
    )


def _build_path_entry(template: str, item: Any, build: _Build) -> PathEntry:
    if isinstance(item, dict) and "$ref" in item:
        item = build.deref(item, template)
    if not isinstance(item, dict):
        build.diag(f"{template}: path item is not a mapping; treated as empty")
        item = {}
    method_keys = _SWAGGER2_METHOD_KEYS if build.swagger2 else _METHOD_KEYS
    for dup in getattr(item, "duplicate_keys", []):
        if str(dup).lower() in method_keys:
            build.diag(f"{template}: duplicate method {dup!r}; first occurrence kept")

    shared_params = _parameter_objects(item.get("parameters"), template, build)

    operations: dict[str, OperationRecord] = {}
    for key, op in item.items():
        method = method_keys.get(key) if isinstance(key, str) else None
        if method is None:
            continue
        if isinstance(op, dict) and "$ref" in op:
            op = build.deref(op, template, key, ".")
        if not isinstance(op, dict):
            build.diag(f"{template}: operation {method} is not a mapping; skipped")
            continue
        operations[method] = _build_operation(template, method, op, shared_params, build)

    return PathEntry(operations=operations)


def _build_operation(
    template: str,
    method: str,
    op: Mapping[str, Any],
    shared_params: list[Mapping[str, Any]],
    build: _Build,
) -> OperationRecord:
    raw_params, raw_responses = op.get("parameters"), op.get("responses")
    build.count(1 + len(shared_params)
                + (len(raw_params) if isinstance(raw_params, list) else 0)
                + (len(raw_responses) if isinstance(raw_responses, dict) else 0))
    where = f"{template} {method}"
    query_names: dict[str, None] = {}  # in first-seen order
    has_body = False  # a Swagger 2 body or form parameter
    for p in shared_params + _parameter_objects(raw_params, where, build):
        location = p.get("in")
        if location == "query":
            name = p.get("name")
            if name is not None:
                query_names[str(name)] = None
        elif location == "body" or location == "formData":
            has_body = True

    produces: frozenset[str] = _NO_MEDIA
    swagger2 = build.swagger2
    if swagger2:
        # Operation-level consumes/produces override the root lists;
        # an explicit empty list clears the inherited one.
        if op.get("consumes") is None:
            consumes = build.consumes
        else:
            consumes = _media_list(op.get("consumes"), build, where, "consumes")
        if op.get("produces") is None:
            produces = build.produces
        else:
            produces = _media_list(op.get("produces"), build, where, "produces")
        request_media = consumes if has_body else _NO_MEDIA
    else:
        body = op.get("requestBody")
        has_body = body is not None
        if isinstance(body, dict) and "$ref" in body:
            body = build.deref(body, where, "requestBody")
        request_media = _content_media(body, build, where, "requestBody")

    responses: dict[str, frozenset[str]] = {}
    if isinstance(raw_responses, dict):
        for dup in getattr(raw_responses, "duplicate_keys", ()):
            if (key := build.status_key(dup)) is not None:
                build.diag(f"{where}: duplicate response status {key!r}; first kept")
        status_keys = build.status_keys
        for status, value in raw_responses.items():
            if type(status) is str and status in status_keys:
                key = status_keys[status]
            else:
                key = build.status_key(status)
            if key is None:
                build.diag(f"{where}: invalid response status key {status!r}; dropped")
                continue
            if key in responses:
                build.diag(f"{where}: duplicate response status {key!r}; first kept")
                continue
            if isinstance(value, dict) and "$ref" in value:
                value = build.deref(value, where, key)
            responses[key] = produces if swagger2 else _content_media(value, build, where, key)
    elif raw_responses is not None:
        build.diag(f"{where}: 'responses' is not a mapping; treated as empty")

    if not responses:
        build.diag(f"{where}: no responses declared")

    summary = op.get("summary")
    description = op.get("description")
    operation_id = op.get("operationId")
    security = op.get("security")  # present and not null, it replaces the root's
    # Built in C, in field order, without the NamedTuple constructor's Python-level call.
    return tuple.__new__(OperationRecord, (
        operation_id if isinstance(operation_id, str) else None,
        summary if isinstance(summary, str) else None,
        description if isinstance(description, str) else None,
        has_body,
        request_media,
        responses,
        build.requires_credentials if security is None else _requires_credentials(security),
        tuple(query_names),
    ))


def _parameter_objects(value: Any, context: str, build: _Build) -> list[Mapping[str, Any]]:
    if not isinstance(value, list):
        return []
    out = []
    for entry in value:
        if isinstance(entry, dict) and "$ref" in entry:
            entry = build.deref(entry, context, "parameter")
        if isinstance(entry, dict):
            out.append(entry)
    return out


def _requires_credentials(value: Any) -> bool:
    """A security list requires credentials when one requirement names a scheme."""
    return isinstance(value, list) and any(
        isinstance(requirement, dict) and requirement for requirement in value)


def _media_list(value: Any, build: _Build, where: str, detail: str) -> frozenset[str]:
    if value is None:
        return _NO_MEDIA
    if not isinstance(value, list):
        build.diag(f"{where} {detail}: expected a list of media types; ignored")
        return _NO_MEDIA
    return _valid_media(value, build, where, detail)


def _content_media(node: Any, build: _Build, where: str, detail: str) -> frozenset[str]:
    if not isinstance(node, dict):
        return _NO_MEDIA
    content = node.get("content")
    if not isinstance(content, dict):
        return _NO_MEDIA
    keys = tuple(content)
    media = build.content_media.get(keys)
    if media is None:
        media = _valid_media(content, build, where, detail)
        if len(media) == len(keys):  # each valid: no diagnostic to repeat at the next use
            build.content_media[keys] = media
    return media


def _valid_media(values: Iterable[Any], build: _Build, where: str, detail: str) -> frozenset[str]:
    kept = set()
    for value in values:
        if isinstance(value, str) and _MEDIA_TYPE.match(value):
            kept.add(value)
        else:
            build.diag(f"{where} {detail}: invalid media type {value!r}; dropped")
    return frozenset(kept)


def _normalize_status_key(status: Any) -> str | None:
    key = str(status)
    if key == "default":
        return key
    upper = key.upper()
    return upper if _STATUS_KEY.match(upper) else None
