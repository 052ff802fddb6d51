"""Command-line front door: lint specs, aggregate a corpus directory.

Exit codes: 0 = no violations, 1 = violations found, 2 = parse or
configuration error (errors go to stderr; a bad file never stops the
remaining files from being processed), 141 = stdout was closed before the
output was written, as by `| head` (no traceback, no stderr line).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, TypeVar

from .errors import ConfigError, LexiconError, NotAnApiSpec, ParseError
from .lexicon import WordLexicon, default_lexicon, load_lexicon
from .model import load_spec, load_spec_file
from .reporting import FORMATS, aggregate, build_report, render
from .rules import RULE_ORDER, RuleConfig, RuleId, run_rules
from .uri import Archetype

LEXICON_ENV_VAR = "REST_LINT_LEXICON"

_SPEC_SUFFIXES = (".json", ".yaml", ".yml")

EXIT_CLEAN = 0
EXIT_VIOLATIONS = 1
EXIT_ERROR = 2
EXIT_STDOUT_CLOSED = 141  # 128 + SIGPIPE: what a shell reports for a writer killed by a closed pipe

_T = TypeVar("_T")


class LintConfig(NamedTuple):
    lexicon_path: str | None = None
    output_format: str = "text"
    rules: RuleConfig = RuleConfig()


_CONFIG_FIELDS = {"enabled_rules", "lexicon_path", "exempt_parameter_names", "output_format",
                  "archetype_overrides"}


def load_config(path: str | Path | None = None) -> LintConfig:
    """Read a JSON config file; no path means all defaults.

    Unknown rule names, unknown fields, and malformed overrides are
    configuration errors, never silently ignored.
    """
    if path is None:
        return LintConfig()
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deep
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"config file {path} must contain a JSON object")

    unknown = set(doc) - _CONFIG_FIELDS
    if unknown:
        raise ConfigError(f"unknown config field(s): {', '.join(sorted(unknown))}")

    cfg, rules = LintConfig(), RuleConfig()

    if "enabled_rules" in doc:
        names = doc["enabled_rules"]
        if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
            raise ConfigError("enabled_rules: expected a list of rule names")
        rules = rules._replace(enabled=frozenset(_parse_rule(n) for n in names))

    if "lexicon_path" in doc:
        value = doc["lexicon_path"]
        if value is not None and not isinstance(value, str):
            raise ConfigError("lexicon_path: expected a string or null")
        if value:  # a relative path names a file beside the config file
            value = os.path.join(os.path.dirname(path), value)
        cfg = cfg._replace(lexicon_path=value)

    if "exempt_parameter_names" in doc:
        value = doc["exempt_parameter_names"]
        if not isinstance(value, bool):
            raise ConfigError("exempt_parameter_names: expected true or false")
        rules = rules._replace(exempt_parameter_names=value)

    if "output_format" in doc:
        value = doc["output_format"]
        if value not in FORMATS:
            raise ConfigError(f"output_format: expected one of {FORMATS}, got {value!r}")
        cfg = cfg._replace(output_format=value)

    if "archetype_overrides" in doc:
        entries = doc["archetype_overrides"]
        if not isinstance(entries, list):
            raise ConfigError("archetype_overrides: expected a list")
        overrides: dict[tuple[str, str], dict[int, Archetype]] = {}
        for i, entry in enumerate(entries):
            spec_id, path, segment_index, archetype = _parse_override(entry, i)
            pinned = overrides.setdefault((spec_id, path), {})
            if segment_index in pinned:
                raise ConfigError(f"archetype_overrides[{i}]: segment {segment_index} of "
                                  f"{path!r} in {spec_id!r} is already overridden")
            pinned[segment_index] = archetype
        rules = rules._replace(archetype_overrides=overrides)

    return cfg._replace(rules=rules)


def _parse_rule(name: str) -> RuleId:
    try:
        return RuleId(name)
    except ValueError:
        valid = ", ".join(rule.value for rule in RULE_ORDER)
        raise ConfigError(f"enabled_rules: unknown rule {name!r} (valid: {valid})") from None


def _parse_override(entry: object, index: int) -> tuple[str, str, int, Archetype]:
    where = f"archetype_overrides[{index}]"
    if not isinstance(entry, dict):
        raise ConfigError(f"{where}: expected an object")
    missing = {"spec_id", "path", "segment_index", "archetype"} - set(entry)
    if missing:
        raise ConfigError(f"{where}: missing field(s): {', '.join(sorted(missing))}")
    if not isinstance(entry["spec_id"], str) or not isinstance(entry["path"], str):
        raise ConfigError(f"{where}: spec_id and path must be strings")
    segment_index = entry["segment_index"]
    if not isinstance(segment_index, int) or isinstance(segment_index, bool) or segment_index < 0:
        raise ConfigError(f"{where}: segment_index must be a non-negative integer")
    try:
        archetype = Archetype(entry["archetype"])
    except ValueError:
        valid = ", ".join(a.value for a in Archetype)
        raise ConfigError(
            f"{where}: unknown archetype {entry['archetype']!r} (valid: {valid})"
        ) from None
    return entry["spec_id"], entry["path"], segment_index, archetype


def _resolve_lexicon(cfg: LintConfig) -> WordLexicon:
    path = cfg.lexicon_path or os.environ.get(LEXICON_ENV_VAR)
    if path:
        try:
            return load_lexicon(path)
        except (OSError, LexiconError) as exc:
            raise ConfigError(f"cannot load lexicon {path}: {exc}") from exc
    return default_lexicon()


def _collecting_after_each(items: Iterable[_T]) -> Iterator[_T]:
    """Yield each item; once the loop body is done with it, however it ended,
    collect the youngest generation, which with automatic collection off
    holds only what that item's processing left."""
    for item in items:
        yield item
        gc.collect(0)


def _write(rendered: bytes) -> None:
    """Write all the rendered UTF-8 bytes as they are, whatever stdout's text encoding."""
    sys.stdout.flush()
    out, unwritten = sys.stdout.buffer, memoryview(rendered)
    while unwritten:  # a write may take fewer bytes than it is given
        unwritten = unwritten[out.write(unwritten):]
    out.flush()


def cmd_lint(paths: list[str], cfg: LintConfig) -> int:
    """Lint each file and write rendered reports to stdout."""
    lexicon = _resolve_lexicon(cfg)
    any_violation = False
    any_error = False
    for path in _collecting_after_each(paths):
        try:
            spec = load_spec_file(path)
        except (OSError, ParseError, NotAnApiSpec) as exc:
            print(f"{path}: {exc}", file=sys.stderr)
            any_error = True
            continue
        report = build_report(spec.spec_id, run_rules(spec, cfg.rules, lexicon))
        _write(render(report, cfg.output_format))
        any_violation = any_violation or bool(report.violations)
        del spec, report  # freed now, the file's collection walks only what outlives it
    if any_error:
        return EXIT_ERROR
    return EXIT_VIOLATIONS if any_violation else EXIT_CLEAN


def cmd_aggregate(root: str, cfg: LintConfig) -> int:
    """Treat each immediate subdirectory of root as one project and
    aggregate lint results across the corpus."""
    lexicon = _resolve_lexicon(cfg)
    root_path = Path(root)
    if not root_path.is_dir():
        print(f"{root}: not a directory", file=sys.stderr)
        return EXIT_ERROR
    projects = sorted((d for d in root_path.iterdir() if d.is_dir()), key=lambda d: d.name)
    if not projects:
        print(f"{root}: empty corpus (no project subdirectories)", file=sys.stderr)
        return EXIT_ERROR

    any_violation = False
    any_error = False
    reports = []
    for project in projects:
        files = sorted(
            p for p in project.rglob("*") if p.is_file() and p.suffix in _SPEC_SUFFIXES
        )
        violations = []
        for file in _collecting_after_each(files):
            try:
                spec = load_spec(file.read_bytes(), spec_id=project.name)
            except NotAnApiSpec:
                print(f"skipping {file}: not an API description", file=sys.stderr)
                continue
            except (OSError, ParseError) as exc:
                print(f"{file}: {exc}", file=sys.stderr)
                any_error = True
                continue
            violations.extend(run_rules(spec, cfg.rules, lexicon))
        report = build_report(project.name, violations)
        reports.append(report)
        any_violation = any_violation or bool(report.violations)

    summary = aggregate(reports, total_projects=len(projects))
    _write(render(summary, cfg.output_format))
    if any_error:
        return EXIT_ERROR
    return EXIT_VIOLATIONS if any_violation else EXIT_CLEAN


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rest-lint",
        description="Check OpenAPI/Swagger documents against common REST design rules.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    lint = sub.add_parser("lint", help="lint one or more spec files")
    lint.add_argument("paths", nargs="+", metavar="PATH")
    lint.add_argument("--config", metavar="FILE")
    lint.add_argument("--format", choices=["text", "json"])

    agg = sub.add_parser("aggregate", help="aggregate a corpus directory")
    agg.add_argument("root", metavar="DIR")
    agg.add_argument("--config", metavar="FILE")
    agg.add_argument("--format", choices=["text", "json", "csv"])

    return parser


def main(argv: list[str] | None = None) -> int:
    # Loading, linting and rendering make no reference cycles, so reference
    # counting frees their garbage and automatic collections would only walk
    # the growing heap again and again. The commands collect once per file
    # instead, which frees the cycles a self-referencing YAML anchor makes.
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        args = _build_parser().parse_args(argv)
        cfg = load_config(args.config)
        if args.format:
            cfg = cfg._replace(output_format=args.format)
        if args.command == "lint":
            if cfg.output_format == "csv":
                raise ConfigError("output_format: csv applies to aggregate only; "
                                  "lint writes text or json")
            return cmd_lint(args.paths, cfg)
        return cmd_aggregate(args.root, cfg)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except BrokenPipeError:  # stdout closed: the flush at exit goes to devnull, quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_STDOUT_CLOSED
    finally:
        if was_enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
