"""Seeded inputs for the rest-lint benchmark workloads.

``generate(name, seed, directory)`` writes one workload's input files and
returns what the benchmark needs to run the CLI on them and to check its
output: the argument list, the expected exit code and the expected count
of every planted finding. The same name, seed and scale give the same
bytes.

Findings are planted for the six rules whose verdict depends only on raw
path text or operation metadata: NoTrailingSlash, ForwardSlash,
Lowercase, NoUnderscores, RC401 and ContentType. Their expected counts
are derived here from the documents as written, without importing
rest_lint, so the check does not depend on the code under test.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

PLANTED_RULES = (
    "RC401", "NoTrailingSlash", "ContentType", "ForwardSlash", "Lowercase", "NoUnderscores",
)

# Copies of the linter's definitions, so expected counts do not come from the code under test.
_HIERARCHY_SEPARATOR = re.compile(r"\w[.:;]\w")
_TOKEN = r"[0-9A-Za-z!#$%&'*+.^_`|~-]+"
_MEDIA_TYPE = re.compile(rf"^{_TOKEN}/{_TOKEN}(\s*;.*)?$")
_BODYLESS_STATUSES = {"204", "304"}


@dataclass(frozen=True)
class Inputs:
    """One generated workload, ready to run.

    Every invocation runs with ``directory`` as its working directory, so
    the file names in ``argv`` and in the output do not depend on where
    the inputs were written.
    """

    directory: Path
    argv: tuple[str, ...]
    output_format: str
    expected_exit: int
    expected_counts: dict[str, int]
    # (file relative to directory, spec_id the CLI gives it) per API description
    specs: tuple[tuple[str, str], ...]


def generate(name: str, seed: int, directory: Path, scale: float = 1.0) -> Inputs:
    """Write workload ``name`` for ``seed`` into ``directory``, which must be empty or absent."""
    directory.mkdir(parents=True, exist_ok=True)
    if any(directory.iterdir()):
        raise FileExistsError(f"{directory} is not empty")
    return WORKLOADS[name](random.Random(f"{name}:{seed}"), directory, scale)


# ---------------------------------------------------------------------------
# Expected findings
# ---------------------------------------------------------------------------


class Expectation:
    """Identity keys of planted findings for one spec id.

    The linter coalesces findings with equal (rule, spec id, path, method,
    status, fragment), and ``aggregate`` gives every file of a project the
    project's name as spec id, so one set per spec id counts what the
    linter reports.
    """

    def __init__(self) -> None:
        self.keys: set[tuple] = set()

    def add_path(self, template: str) -> None:
        if len(template) > 1 and template.endswith("/"):
            self.keys.add(("NoTrailingSlash", template, None, None, "/"))
        if "//" in template:
            self.keys.add(("ForwardSlash", template, None, None, "//"))
        for part in _path_parts(template):
            if len(part) >= 2 and part.startswith("{") and part.endswith("}"):
                continue  # parameter names are placeholders, exempt from naming rules
            if "_" in part:
                self.keys.add(("NoUnderscores", template, None, None, part))
            if any(ch.isupper() for ch in part):
                self.keys.add(("Lowercase", template, None, None, part))
            if _HIERARCHY_SEPARATOR.search(part):
                self.keys.add(("ForwardSlash", template, None, None, part))

    def add_operation(
        self,
        template: str,
        method: str,
        secured: bool,
        has_body: bool,
        request_media: list[str],
        response_media: dict[str, list[str]],
    ) -> None:
        if secured and "401" not in response_media:
            self.keys.add(("RC401", template, method, None, "401"))
        if has_body and not _valid_media(request_media):
            self.keys.add(("ContentType", template, method, None, "Content-Type"))
        for status, media in response_media.items():
            if status in _BODYLESS_STATUSES or status.startswith("1"):
                continue
            if not _valid_media(media):
                self.keys.add(("ContentType", template, method, status, "Content-Type"))

    def counts(self) -> dict[str, int]:
        out = dict.fromkeys(PLANTED_RULES, 0)
        for key in self.keys:
            out[key[0]] += 1
        return out


def _path_parts(template: str) -> list[str]:
    body = template[1:] if template.startswith("/") else template
    if len(template) > 1 and template.endswith("/"):
        body = body[:-1]
    return body.split("/") if body else []


def _valid_media(media: list[str]) -> bool:
    return any(_MEDIA_TYPE.match(m) for m in media)


def _sum_counts(expectations: list[Expectation]) -> dict[str, int]:
    total = dict.fromkeys(PLANTED_RULES, 0)
    for exp in expectations:
        for rule, n in exp.counts().items():
            total[rule] += n
    return total


# ---------------------------------------------------------------------------
# Path vocabularies
# ---------------------------------------------------------------------------

# Names real APIs reuse. Camel case, underscores and upper case are
# deliberate: they plant Lowercase, NoUnderscores and Hyphens findings.
_NOUNS = (
    "users", "orders", "items", "products", "accounts", "invoices", "payments",
    "customers", "carts", "reviews", "categories", "tags", "comments", "posts", "files",
    "images", "teams", "projects", "tasks", "events", "messages", "notifications",
    "sessions", "tokens", "addresses", "shipments", "subscriptions", "plans", "coupons",
    "reports", "metrics", "logs", "jobs", "webhooks", "roles", "permissions", "groups",
    "members", "devices", "children", "people", "media", "line-items", "payment-methods",
    "api-keys", "access-tokens", "userProfiles", "orderLines", "order_items", "audit_logs",
    "Invoices", "Users",
)
_DOCUMENTS = (
    "profile", "settings", "me", "config", "summary", "avatar", "balance", "status",
    "preferences", "billing",
)
_ACTIONS = (
    "search", "export", "activate", "cancel", "refresh", "login", "logout", "verify",
    "archive", "getAll", "createItem", "delete", "update", "reset_password", "sendEmail",
    "download",
)
_PREFIXES = ("", "/api", "/api/v1", "/v2", "/rest/v1", "/API/v1", "/internal_api")
_PARAMS = ("{id}", "{userId}", "{orderId}", "{item_id}", "{slug}", "{name}", "{ID}")
# Dotted or colon suffixes plant ForwardSlash findings.
_SUFFIXES = ("report.csv", "export.json", "v1.2", "users:batch")

# Syllables for names that rarely repeat (lint-json).
_SYLLABLES = (
    "ka", "lo", "mi", "ter", "van", "quo", "zel", "pra", "dun", "rix", "bel", "sto", "fen",
    "gar", "hul", "jon", "nim", "orb", "pel", "qua", "ron", "sil", "tav", "ul", "vex", "wyn",
    "yor", "zam", "cri", "dov", "esk", "fol",
)


def _finish(rng: random.Random, parts: list[str], prefix: str) -> str:
    r = rng.random()
    if r < 0.12:
        parts.append(rng.choice(_ACTIONS))
    elif r < 0.20:
        parts.append(rng.choice(_DOCUMENTS))
    elif r < 0.23:
        parts.append(rng.choice(_SUFFIXES))
    if rng.random() < 0.01 and len(parts) > 1:
        cut = rng.randrange(1, len(parts))
        parts = parts[:cut] + [""] + parts[cut:]  # an empty segment: "//"
    template = prefix + "/" + "/".join(parts)
    if rng.random() < 0.02:
        template += "/"
    return template


def _shared_template(rng: random.Random) -> str:
    prefix = rng.choice(_PREFIXES)
    depth = rng.choice((1, 1, 2, 2, 2, 3))
    parts: list[str] = []
    for level in range(depth):
        parts.append(rng.choice(_NOUNS))
        if level < depth - 1 or rng.random() < 0.6:
            parts.append(rng.choice(_PARAMS))
    return _finish(rng, parts, prefix)


def _word(rng: random.Random) -> str:
    return "".join(rng.choice(_SYLLABLES) for _ in range(rng.choice((2, 3, 3))))


def _distinct_template(rng: random.Random) -> str:
    prefix = rng.choice(("", "", "/api/v1"))
    depth = rng.choice((1, 2, 2, 3))
    parts: list[str] = []
    for level in range(depth):
        style = rng.random()
        if style < 0.3:
            name = _word(rng) + _word(rng).capitalize() + "s"
        elif style < 0.4:
            name = _word(rng) + "_" + _word(rng) + "s"
        elif style < 0.6:
            name = _word(rng) + "-" + _word(rng) + "s"
        else:
            name = _word(rng) + "s"
        parts.append(name)
        if level < depth - 1 or rng.random() < 0.7:
            parts.append("{" + _word(rng) + "Id}")
    return _finish(rng, parts, prefix)


def _templates(rng: random.Random, count: int, make: Callable[[random.Random], str]) -> list[str]:
    seen: dict[str, None] = {}
    while len(seen) < count:
        seen.setdefault(make(rng), None)
    return list(seen)


# ---------------------------------------------------------------------------
# Documents
# ---------------------------------------------------------------------------

_METHODS_BY_KIND = {
    "collection": ("get", "post", "put", "delete"),
    "item": ("get", "put", "patch", "delete"),
    "action": ("post", "get", "put"),
}
_SUMMARY_VERBS = {
    "get": ("Fetch", "List", "Get", "Retrieve", "Read"),
    "post": ("Create", "Add", "Submit", "Delete"),
    "put": ("Replace", "Update", "Set"),
    "patch": ("Modify", "Update", "Patch"),
    "delete": ("Delete", "Remove", "Drop"),
}
_OPID_VERBS = {
    "get": ("list", "get", "fetch", "find"),
    "post": ("create", "add", "update"),
    "put": ("update", "replace"),
    "patch": ("modify", "patch"),
    "delete": ("delete", "remove"),
}
_SUCCESS = {"get": "200", "post": "201", "put": "200", "patch": "200"}


@dataclass
class _Root:
    """Spec-wide choices; fixed for single-spec workloads so seeds vary names, not work."""

    version: str  # "openapi3" | "swagger2"
    global_security: bool
    root_consumes: list[str] | None = None
    root_produces: list[str] | None = None
    expectation: Expectation = field(default_factory=Expectation)


def _media_choice(rng: random.Random) -> str:
    r = rng.random()
    if r < 0.02:
        return "json"  # not a media type: dropped with a diagnostic
    return "application/xml" if r < 0.07 else "application/json"


def _kind(template: str) -> str:
    parts = _path_parts(template)
    last = parts[-1] if parts else ""
    if last.startswith("{"):
        return "item"
    if last in _ACTIONS:
        return "action"
    return "collection"


def _camel_noun(template: str) -> str:
    literals = [p for p in _path_parts(template) if p and not p.startswith("{")]
    word = re.sub(r"[^A-Za-z]", "", literals[-1]) if literals else "root"
    return (word[:1].upper() + word[1:]) or "Root"


def _typed(root: _Root, type_name: str) -> dict:
    """A parameter's type, in the version's syntax."""
    if root.version == "swagger2":
        return {"type": type_name}
    return {"schema": {"type": type_name}}


def _operation(rng: random.Random, root: _Root, template: str, method: str) -> dict:
    noun = _camel_noun(template)
    op: dict = {
        "summary": f"{rng.choice(_SUMMARY_VERBS[method])} {noun.lower()}",
        "operationId": f"{rng.choice(_OPID_VERBS[method])}{noun}{rng.randrange(1000)}",
    }
    if rng.random() < 0.3:
        op["description"] = f"{rng.choice(_SUMMARY_VERBS[method])} the {noun.lower()} record."

    swagger = root.version == "swagger2"
    parameters: list[dict] = []
    if method == "get" and _kind(template) == "collection":
        prefix = "#/parameters/" if swagger else "#/components/parameters/"
        parameters += [{"$ref": prefix + "limit"}, {"$ref": prefix + "offset"}]
        if rng.random() < 0.01:
            parameters.append({"name": "action", "in": "query", **_typed(root, "string")})

    secured = root.global_security
    if root.global_security and rng.random() < 0.08:
        op["security"] = []
        secured = False
    elif not root.global_security and rng.random() < 0.1:
        op["security"] = [{"bearerAuth": []}]
        secured = True

    wants_body = method in ("post", "put", "patch") or rng.random() < 0.01
    has_body = False
    request_media: list[str] = []
    produces = root.root_produces or []
    if swagger:
        if wants_body:
            parameters.append({"name": "body", "in": "body", "required": True,
                               "schema": {"$ref": "#/definitions/Resource"}})
            has_body = True
        consumes = root.root_consumes or []
        if rng.random() < 0.03:
            consumes = rng.choice(([], ["json"], ["application/xml"]))
            op["consumes"] = consumes
        if rng.random() < 0.05:
            produces = rng.choice(([], ["json"], ["application/xml"]))
            op["produces"] = produces
        request_media = consumes
    elif wants_body:
        has_body = True
        if rng.random() < 0.95:
            request_media = [_media_choice(rng)]
            op["requestBody"] = {"content": {
                request_media[0]: {"schema": {"$ref": "#/components/schemas/Resource"}}}}
        else:
            op["requestBody"] = {"description": "raw payload"}
    if parameters:
        op["parameters"] = parameters

    statuses: list[tuple[str, float]] = []
    if method == "delete":
        statuses.append(("204", 0.0))
    else:
        statuses.append((_SUCCESS[method], 0.93))
        if method != "get":
            statuses.append(("400", 0.5))
    statuses.append(("404", 0.3))
    if secured and rng.random() < 0.7:
        statuses.append(("401", 0.5))
    if rng.random() < 0.05:
        statuses.append(("default", 0.5))

    responses: dict[str, dict] = {}
    response_media: dict[str, list[str]] = {}
    for status, p_content in statuses:
        resp: dict = {"description": f"{status} response"}
        if swagger:
            if p_content and status != "204":
                resp["schema"] = {"$ref": "#/definitions/Resource"}
            response_media[status] = produces
        elif rng.random() < p_content:
            media = _media_choice(rng)
            resp["content"] = {media: {}}
            response_media[status] = [media]
        else:
            response_media[status] = []
        responses[status] = resp
    op["responses"] = responses

    root.expectation.add_operation(
        template, method.upper(), secured, has_body, request_media, response_media
    )
    return op


def _document(rng: random.Random, root: _Root, title: str, templates: list[str],
              ops_per_path: tuple[int, int]) -> dict:
    paths: dict[str, dict] = {}
    for template in templates:
        root.expectation.add_path(template)
        methods = _METHODS_BY_KIND[_kind(template)]
        count = min(rng.randint(*ops_per_path), len(methods))
        chosen = rng.sample(methods, count)
        item: dict = {m: _operation(rng, root, template, m)
                      for m in sorted(chosen, key=methods.index)}
        params = [p[1:-1] for p in _path_parts(template) if p.startswith("{") and p.endswith("}")]
        if params:
            item["parameters"] = [{"name": p, "in": "path", "required": True,
                                   **_typed(root, "string")} for p in params]
        paths[template] = item

    info = {"title": title, "version": f"1.{rng.randrange(20)}.0"}
    resource = {"type": "object", "properties": {
        "id": {"type": "string"}, "name": {"type": "string"}, "createdAt": {"type": "string"}}}
    limit = {"name": "limit", "in": "query", "required": False, **_typed(root, "integer")}
    offset = {"name": "offset", "in": "query", "required": False, **_typed(root, "integer")}
    if root.version == "swagger2":
        doc: dict = {"swagger": "2.0", "info": info, "basePath": "/"}
        if root.root_consumes is not None:
            doc["consumes"] = root.root_consumes
        if root.root_produces is not None:
            doc["produces"] = root.root_produces
        doc["securityDefinitions"] = {"bearerAuth": {"type": "apiKey", "name": "Authorization",
                                                     "in": "header"}}
        if root.global_security:
            doc["security"] = [{"bearerAuth": []}]
        doc["paths"] = paths
        doc["parameters"] = {"limit": limit, "offset": offset}
        doc["definitions"] = {"Resource": resource}
        return doc
    doc = {"openapi": "3.0.3", "info": info}
    if root.global_security:
        doc["security"] = [{"bearerAuth": []}]
    doc["paths"] = paths
    doc["components"] = {
        "securitySchemes": {"bearerAuth": {"type": "http", "scheme": "bearer"}},
        "parameters": {"limit": limit, "offset": offset},
        "schemas": {"Resource": resource},
    }
    return doc


# ---------------------------------------------------------------------------
# Encodings
# ---------------------------------------------------------------------------


def to_json(doc: object) -> bytes:
    return (json.dumps(doc, indent=2) + "\n").encode("utf-8")


# Strings YAML reads back as the same string when written unquoted.
_PLAIN = re.compile(r"[A-Za-z][A-Za-z0-9 _.-]*[A-Za-z0-9_]|[A-Za-z]")
_YAML_WORDS = {"true", "false", "null", "yes", "no", "on", "off", "y", "n"}


def to_yaml(doc: object) -> bytes:
    """Block-style YAML, quoting only strings that would not read back as strings.

    Hand-written so that generating is fast and its bytes do not depend
    on the installed YAML emitter.
    """
    lines: list[str] = []
    _emit_yaml(doc, 0, lines)
    return ("\n".join(lines) + "\n").encode("utf-8")


def _yaml_scalar(value: object) -> str:
    if value is True:
        return "true"
    if value is False:
        return "false"
    if value is None:
        return "null"
    if isinstance(value, (dict, list)):
        return "{}" if isinstance(value, dict) else "[]"
    if isinstance(value, (int, float)):
        return repr(value)
    return _yaml_str(value)


def _yaml_str(text: str) -> str:
    if _PLAIN.fullmatch(text) and text.lower() not in _YAML_WORDS:
        return text
    return json.dumps(text)


def _emit_yaml(node: object, indent: int, lines: list[str]) -> None:
    pad = " " * indent
    if isinstance(node, dict):
        for key, value in node.items():
            if isinstance(value, (dict, list)) and value:
                lines.append(f"{pad}{_yaml_str(str(key))}:")
                _emit_yaml(value, indent + 2, lines)
            else:
                lines.append(f"{pad}{_yaml_str(str(key))}: {_yaml_scalar(value)}")
        return
    for item in node:  # type: ignore[union-attr]
        if isinstance(item, (dict, list)) and item:
            first = len(lines)
            _emit_yaml(item, indent + 2, lines)
            lines[first] = f"{pad}- {lines[first][indent + 2:]}"
        else:
            lines.append(f"{pad}- {_yaml_scalar(item)}")


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def _sized(base: int, scale: float) -> int:
    return max(1, round(base * scale))


def _lint_yaml(rng: random.Random, directory: Path, scale: float) -> Inputs:
    root = _Root(version="openapi3", global_security=True)
    templates = _templates(rng, _sized(450, scale), _shared_template)
    doc = _document(rng, root, "Shop API", templates, (3, 3))
    (directory / "spec.yaml").write_bytes(to_yaml(doc))
    return Inputs(directory, ("lint", "spec.yaml"), "text", 1,
                  root.expectation.counts(), (("spec.yaml", "spec.yaml"),))


def _lint_json(rng: random.Random, directory: Path, scale: float) -> Inputs:
    root = _Root(version="swagger2", global_security=True, root_consumes=["application/json"])
    templates = _templates(rng, _sized(5000, scale), _distinct_template)
    doc = _document(rng, root, "Generated API", templates, (2, 3))
    (directory / "spec.json").write_bytes(to_json(doc))
    return Inputs(directory, ("lint", "--format", "json", "spec.json"), "json", 1,
                  root.expectation.counts(), (("spec.json", "spec.json"),))


_PROJECT_WORDS = ("billing", "catalog", "identity", "fleet", "ledger", "search", "media",
                  "notify", "orders", "pricing", "support", "travel")
_NOT_SPECS = {
    "package.json": {"name": "client", "version": "1.0.0", "private": True,
                     "dependencies": {"axios": "^1.6.0"}},
    "docker-compose.yml": {"services": {"api": {"image": "api:latest", "ports": ["8080:8080"]}}},
}


def _aggregate_corpus(rng: random.Random, directory: Path, scale: float) -> Inputs:
    corpus = directory / "corpus"
    projects = _sized(40, scale)
    files = 3 * projects
    # Exact shares, shuffled: the seed moves names and placement, not the amount of work.
    yaml_flags = [i < files // 4 for i in range(files)]
    versions = ["openapi3" if i % 2 else "swagger2" for i in range(files)]
    sizes = [8 + i % 13 for i in range(files)]
    for column in (yaml_flags, versions, sizes):
        rng.shuffle(column)
    expectations: list[Expectation] = []
    specs: list[tuple[str, str]] = []
    for index in range(projects):
        project = f"{rng.choice(_PROJECT_WORDS)}-service-{index:02d}"
        expectation = Expectation()
        expectations.append(expectation)
        for k in range(3):
            f = 3 * index + k
            root = _Root(
                version=versions[f],
                global_security=rng.random() < 0.6,
                root_consumes=["application/json"] if rng.random() < 0.6 else None,
                root_produces=rng.choice((["application/json"], ["application/json"], None)),
                expectation=expectation,
            )
            templates = _templates(rng, sizes[f], _shared_template)
            doc = _document(rng, root, f"{project} {k}", templates, (1, 3))
            suffix = "yaml" if yaml_flags[f] else "json"
            rel = f"{rng.choice(('', 'specs/', 'docs/api/'))}api-{k}.{suffix}"
            path = corpus / project / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(to_yaml(doc) if yaml_flags[f] else to_json(doc))
            specs.append((f"corpus/{project}/{rel}", project))
        if index % 5 == 0:
            name = rng.choice(sorted(_NOT_SPECS))
            data = _NOT_SPECS[name]
            (corpus / project / name).write_bytes(
                to_yaml(data) if name.endswith(".yml") else to_json(data))
    return Inputs(directory, ("aggregate", "--format", "csv", "corpus"), "csv", 1,
                  _sum_counts(expectations), tuple(specs))


WORKLOADS: dict[str, Callable[[random.Random, Path, float], Inputs]] = {
    "lint-yaml": _lint_yaml,
    "lint-json": _lint_json,
    "aggregate-corpus": _aggregate_corpus,
}
