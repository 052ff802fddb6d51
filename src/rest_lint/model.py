"""Normalized model of an OpenAPI/Swagger document.

Both Swagger 2.0 and OpenAPI 3.x inputs (JSON or YAML) are loaded into
one internal shape so rule checkers are written once. Besides the spec
id, the input's version and the loader's diagnostics, the model holds
only the facts the checkers read: path templates, each operation's
method, operationId, summary and description, request media types,
response status keys with their media types, query parameter names and
whether it requires credentials. Loading degrades gracefully:
structural oddities (duplicate paths, missing responses, unresolvable
references) become diagnostics instead of hard failures. The model is
immutable after load and safe to share across checkers.
"""

from __future__ import annotations

import enum
import json
import re
import types
from collections.abc import Iterable, Mapping
from pathlib import Path
from typing import Any, BinaryIO, NamedTuple

import yaml

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


class VersionKind(enum.Enum):
    SWAGGER2 = "swagger2"
    OPENAPI3 = "openapi3"


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
    version_kind: VersionKind
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
        raise NotAnApiSpec(f"{spec_id}: document is not a JSON/YAML object")
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

    __slots__ = ("duplicate_keys",)
    duplicate_keys: tuple[Any, ...]


def _keyed_from_pairs(pairs: list[tuple[Any, Any]]) -> dict[Any, Any]:
    mapping = dict(pairs)  # keeps the last value of a repeated key
    if len(mapping) != len(pairs):
        mapping = _KeyedDict()
        duplicates = []
        for key, value in pairs:
            if key in mapping:
                duplicates.append(key)
            else:
                mapping[key] = value
        mapping.duplicate_keys = tuple(duplicates)
    return mapping


class _DupSafeLoader(yaml.SafeLoader):
    """PyYAML's pure-Python loader: the fallback, and the parser whose errors stand."""


_MAP_TAG, _SEQ_TAG = yaml.resolver.BaseResolver.DEFAULT_MAPPING_TAG, "tag:yaml.org,2002:seq"
_MERGE_TAG = "tag:yaml.org,2002:merge"
_MERGE = object()  # a "<<" key until its mapping is built
_OPEN = object()  # anchor table entry of a container still open
_MAX_EVENT_DEPTH = 100  # deeper documents are left to the pure-Python loader

# LibYAML reads tabs and a byte order mark inside the text where the
# pure-Python scanner fails or reads otherwise (a tab between tokens or
# inside a plain scalar). Text with either is left to the pure-Python loader.
_PURE_PYTHON_CHARS = "\t\ufeff"
# LibYAML also reads a "#" right after a block scalar header, which the
# pure-Python scanner rejects.
_BLOCK_HEADER_COMMENT = re.compile(r"[|>](?:[-+]?[1-9]?|[1-9][-+])#")
# Text that starts like a JSON object or array; matched in place, not copied.
_JSON_START = re.compile(r"\s*[{\[]")


def _keyed_mapping(pairs: list[tuple[Any, Any]]) -> dict[Any, Any]:
    """Keep-first mapping; a "<<" key, given as _MERGE, holds a mapping or a list
    of mappings whose keys are added where the mapping lacks them.

    Explicit keys win over merged ones wherever they stand, and of merged
    mappings the earlier one wins, so a merged key is never a duplicate.
    """
    mapping = _keyed_from_pairs(pairs)
    if _MERGE in mapping:
        mapping = _keyed_from_pairs([pair for pair in pairs if pair[0] is not _MERGE])
        for key, value in pairs:
            if key is _MERGE:
                for source in value if isinstance(value, list) else [value]:
                    for merged_key, merged_value in source.items():  # fails on a non-mapping
                        mapping.setdefault(merged_key, merged_value)
    return mapping


def _construct_mapping(loader: yaml.SafeLoader, node: yaml.Node) -> dict[Any, Any]:
    pairs = []
    for key_node, value_node in node.value:
        if key_node.tag == _MERGE_TAG:
            is_list = isinstance(value_node, yaml.SequenceNode)
            sources = value_node.value if is_list else [value_node]
            if not all(isinstance(source, yaml.MappingNode) for source in sources):
                raise yaml.constructor.ConstructorError(
                    "while constructing a mapping", node.start_mark,
                    "expected a mapping or list of mappings for merging", value_node.start_mark,
                )
            pairs.append((_MERGE, [loader.construct_object(source, deep=True)
                                   for source in sources]))
            continue
        key = loader.construct_object(key_node, deep=True)
        try:
            hash(key)
        except TypeError:
            key = str(key)
        pairs.append((key, loader.construct_object(value_node, deep=True)))
    return _keyed_mapping(pairs)


_DupSafeLoader.add_constructor(_MAP_TAG, _construct_mapping)


class _HandOver(Exception):
    """The event loop leaves the text to the pure-Python loader."""


def _scalar(loader: yaml.CSafeLoader, tag: str, text: str) -> Any:
    if tag == _MERGE_TAG:
        return _MERGE
    # KeyError for a tag SafeLoader does not construct ("!", "!local", "!!value"...).
    value = loader.yaml_constructors[tag](loader, yaml.ScalarNode(tag, text))
    if isinstance(value, types.GeneratorType):  # a collection tag on a scalar
        raise _HandOver
    return value


def _yaml_from_events(text: str) -> Any:
    """Build the document in one loop over LibYAML's events, with no recursion.

    A plain scalar resolves as SafeLoader resolves it, by its text alone, so
    once per distinct text. Raises where the pure-Python loader might read
    the text otherwise, or fail on it; README lists the cases.
    """
    loader = yaml.CSafeLoader(text)
    get_event, resolve = loader.get_event, loader.resolve
    plain: dict[str, Any] = {}  # plain scalar text -> value
    anchors: dict[str, Any] = {}
    stack: list[tuple[list[Any], bool, bool, str | None]] = []
    items: list[Any] = []  # the open container's values, for a mapping alternating with keys
    is_map = flow = False
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
                        try:
                            value = plain[value]
                        except KeyError:
                            resolved = resolve(yaml.ScalarNode, value, (True, False))
                            value = plain.setdefault(value, _scalar(loader, resolved, value))
                elif event.style in "|>" and _BLOCK_HEADER_COMMENT.match(
                        text, text.find(event.style, event.start_mark.index)):
                    raise _HandOver
                if tag is not None:
                    value = _scalar(loader, tag, value)
                anchor = event.anchor
                if value is _MERGE and (not is_map or len(items) % 2 or anchor is not None):
                    raise _HandOver  # "<<" other than as a plain mapping key
                if anchor is not None:
                    if anchor in anchors:
                        raise _HandOver  # PyYAML fails on a repeated anchor
                    anchors[anchor] = value
                items.append(value)
            elif kind is yaml.MappingStartEvent or kind is yaml.SequenceStartEvent:
                tag, anchor, opens_map = event.tag, event.anchor, kind is yaml.MappingStartEvent
                if tag is not None and tag != (_MAP_TAG if opens_map else _SEQ_TAG):
                    raise _HandOver
                if len(stack) == _MAX_EVENT_DEPTH or anchor in anchors:
                    raise _HandOver
                if anchor is not None:
                    anchors[anchor] = _OPEN
                stack.append((items, is_map, flow, anchor))
                items, is_map, flow = [], opens_map, event.flow_style
            elif kind is yaml.MappingEndEvent or kind is yaml.SequenceEndEvent:
                # An unhashable (complex) key raises TypeError: PyYAML keys it by its
                # str() before an aliased sequence in it may be filled.
                value = _keyed_mapping(list(zip(*[iter(items)] * 2))) if is_map else items
                items, is_map, flow, anchor = stack.pop()
                if anchor is not None:
                    anchors[anchor] = value
                items.append(value)
            elif kind is yaml.AliasEvent:
                value = anchors.get(event.anchor, _OPEN)
                if value is _OPEN:
                    raise _HandOver  # undefined, or a container still open
                items.append(value)
            else:  # document end
                if not isinstance(get_event(), yaml.StreamEndEvent):
                    raise _HandOver
                return items[0]
    finally:
        loader.dispose()


# The fast path where PyYAML has LibYAML; None leaves all text to _DupSafeLoader.
_FAST_YAML = _yaml_from_events if yaml.__with_libyaml__ else None


def _load_yaml(text: str) -> Any:
    """Build the document from LibYAML's events, else parse it in pure Python.

    Whatever the event loop leaves, or fails on, is parsed again by
    _DupSafeLoader, whose result or error stands, so every diagnostic is the
    pure-Python parser's.
    """
    if _FAST_YAML is not None and not any(char in text for char in _PURE_PYTHON_CHARS):
        try:
            return _FAST_YAML(text)
        except Exception:
            pass
    return yaml.load(text, Loader=_DupSafeLoader)


def _parse_document(data: bytes, diagnostics: list[str] | None = None) -> Any:
    """The document's JSON reading, else its YAML reading. JSON-looking text
    read as YAML adds a note to diagnostics, where given."""
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ParseError(f"input is not valid UTF-8: {exc}") from exc

    try:
        return json.loads(text, object_pairs_hook=_keyed_from_pairs)
    except json.JSONDecodeError as exc:
        # Keep the message, not the exception: its traceback holds this frame, so
        # binding it here would make a reference cycle that keeps the YAML
        # document parsed below alive until a full garbage collection.
        json_error = (exc.msg, exc.lineno, exc.colno)
    except RecursionError as exc:
        raise ParseError("document nesting too deep") from exc
    except ValueError as exc:  # a number beyond Python's limit on integer digits
        raise ParseError(f"invalid JSON: {exc}") from exc
    msg, line, column = json_error
    try:
        doc = _load_yaml(text)
    except RecursionError as exc:
        raise ParseError("document nesting too deep") from exc
    except Exception as yaml_exc:  # parser layer: any other failure is a parse error
        if _JSON_START.match(text):
            raise ParseError(
                f"invalid JSON: {msg}", position=f"line {line} column {column}"
            ) from yaml_exc
        mark = getattr(yaml_exc, "problem_mark", None)
        position = f"line {mark.line + 1} column {mark.column + 1}" if mark else None
        if isinstance(yaml_exc, yaml.reader.ReaderError):  # str() gives the offset a 2nd line
            problem = str(yaml_exc).partition("\n")[0]
            position = f"character {yaml_exc.position + 1}"
        else:
            problem = getattr(yaml_exc, "problem", None) or str(yaml_exc) or "unreadable document"
        raise ParseError(f"invalid YAML: {problem}", position=position) from yaml_exc
    if diagnostics is not None and _JSON_START.match(text):
        diagnostics.append(f"not valid JSON ({msg} at line {line} column {column}); read as YAML")
    return doc


# ---------------------------------------------------------------------------
# Model construction. Both parsers build every mapping as a dict (a _KeyedDict
# only where a key repeats), so the builder tests for dict, not the Mapping ABC.
# ---------------------------------------------------------------------------

_SWAGGER2, _OPENAPI3 = VersionKind.SWAGGER2, VersionKind.OPENAPI3  # bound once: see uri.py


class _Build:
    """The document, what its root declares for every operation, and the diagnostics."""

    def __init__(self, root: Mapping[str, Any], diagnostics: list[str]) -> None:
        self.root = root
        self.version_kind = _OPENAPI3
        self.consumes: frozenset[str] = _NO_MEDIA  # root media lists, inherited in Swagger 2
        self.produces: frozenset[str] = _NO_MEDIA
        self.requires_credentials = False  # the root's security, where an operation has none
        self.diagnostics = diagnostics
        self.status_keys: dict[str | int, str | None] = {}
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
        build.version_kind = _SWAGGER2
    elif "openapi" in doc or "swagger" in doc:
        if "openapi" not in doc:
            build.diag(f"unrecognized swagger version {swagger!r}; treating as OpenAPI 3")
    elif "paths" in doc:
        build.diag("no 'swagger'/'openapi' version marker; assuming OpenAPI 3")
    else:
        raise NotAnApiSpec(
            f"{spec_id}: no 'paths' section and no 'swagger'/'openapi' version marker"
        )

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
        version_kind=build.version_kind,
        paths=paths,
        diagnostics=tuple(build.diagnostics),
    )


def _build_path_entry(template: str, item: Any, build: _Build) -> PathEntry:
    if isinstance(item, dict) and "$ref" in item:
        item = build.deref(item, template)
    if not isinstance(item, dict):
        build.diag(f"{template}: path item is not a mapping; treated as empty")
        item = {}
    method_keys = _SWAGGER2_METHOD_KEYS if build.version_kind is _SWAGGER2 else _METHOD_KEYS
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
    swagger2 = build.version_kind is _SWAGGER2
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
    return _valid_media(content, build, where, detail)


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
