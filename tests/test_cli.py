"""CLI behavior: config loading, exit codes, output formats, aggregation."""

from __future__ import annotations

import contextlib
import errno
import gc
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CORPUS, FIXTURES
from rest_lint import Archetype, ConfigError, RuleId, model
from rest_lint.cli import (
    EXIT_CLEAN,
    EXIT_ERROR,
    EXIT_STDOUT_CLOSED,
    EXIT_VIOLATIONS,
    LintConfig,
    load_config,
    main,
)
from test_model import _perfbench_workloads

CLEAN = CORPUS / "clean.yaml"
CREATE_USER = CORPUS / "create_user.json"
GOLDEN = FIXTURES / "golden"
SRC = Path(__file__).resolve().parents[1] / "src"

# A number with more digits than Python converts between int and str.
LONG_INTEGER_JSON = '{"swagger":"2.0","x":' + "9" * 5000 + ',"paths":{}}'
needs_int_digit_limit = pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="no limit on int-string conversion")


def amplification_yaml() -> str:
    """113 KB of YAML whose 2,000 paths alias one operation for four methods, and
    that operation's responses alias one mapping of 500 statuses: 4 million
    responses once the aliases are expanded."""
    lines = ["openapi: 3.0.0", "x-responses: &r"]
    lines += [f"  {status}: {{description: x}}" for status in range(100, 600)]
    lines += ["x-operation: &o", "  responses: *r", "paths:"]
    lines += [f"  /p{i}: {{get: *o, put: *o, post: *o, delete: *o}}" for i in range(2000)]
    return "\n".join(lines) + "\n"


MODEL_TOO_LARGE = ("model too large: more than 420000 operations, responses and parameters, "
                   "an alias or shared $ref counted each time it is used\n")


def write_config(tmp_path: Path, doc: object) -> str:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def cli_env(**env: str) -> dict[str, str]:
    """The environment of a CLI subprocess, which imports rest_lint from src/."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return {**os.environ, **env, "PYTHONPATH": path}


def run_cli(*args: str, text: bool = True, **env: str) -> subprocess.CompletedProcess:
    """Run the CLI in a subprocess, so that a crash fails the test, not the suite."""
    return subprocess.run(
        [sys.executable, "-m", "rest_lint.cli", *args], capture_output=True, text=text,
        timeout=120, env=cli_env(**env),
    )


# Clean as it stands; an override that pins segment 2 of each path (override_config)
# gives a VerbController and a SingularNoun finding.
OVERRIDDEN_SPEC = json.dumps({"openapi": "3.0.0", "paths": {
    "/users/{id}/activation": {"post": {"responses": {"204": {"description": "x"}}}},
    "/users/{id}/settings": {"get": {"responses": {"204": {"description": "x"}}}}}})


def override_config(tmp_path: Path, spec_id: str) -> str:
    return write_config(tmp_path, {"archetype_overrides": [
        {"spec_id": spec_id, "path": "/users/{id}/activation", "segment_index": 2,
         "archetype": "controller"},
        {"spec_id": spec_id, "path": "/users/{id}/settings", "segment_index": 2,
         "archetype": "document"}]})


def no_space(data: bytes) -> int:
    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


class TestLoadConfig:
    def test_defaults(self):
        cfg = load_config(None)
        assert cfg == LintConfig()
        assert set(cfg.rules.enabled) == set(RuleId)
        assert cfg.rules.exempt_parameter_names is True
        assert cfg.output_format == "text"

    def test_enable_subset(self, tmp_path):
        cfg = load_config(write_config(tmp_path, {"enabled_rules": ["Hyphens"]}))
        assert cfg.rules.enabled == {RuleId.HYPHENS}

    def test_unknown_rule_name_is_error(self, tmp_path):
        with pytest.raises(ConfigError, match="Hyphen"):
            load_config(write_config(tmp_path, {"enabled_rules": ["Hyphen"]}))

    def test_unknown_field_is_error(self, tmp_path):
        with pytest.raises(ConfigError, match="rules_enabled"):
            load_config(write_config(tmp_path, {"rules_enabled": []}))

    def test_bad_json_is_error(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{", encoding="utf-8")
        with pytest.raises(ConfigError):
            load_config(str(path))

    def test_byte_order_mark_is_accepted(self, tmp_path):
        doc = {"enabled_rules": ["Hyphens"], "output_format": "json"}
        path = tmp_path / "bom.json"
        path.write_text(json.dumps(doc), encoding="utf-8-sig")
        assert path.read_bytes().startswith(b"\xef\xbb\xbf")
        assert load_config(str(path)) == load_config(write_config(tmp_path, doc))

    def test_missing_file_is_error(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(str(tmp_path / "absent.json"))

    def test_override_parsing(self, tmp_path):
        cfg = load_config(write_config(tmp_path, {
            "archetype_overrides": [{
                "spec_id": "s", "path": "/users/{id}/profiles",
                "segment_index": 2, "archetype": "document"}],
        }))
        overrides = cfg.rules.archetype_overrides
        assert overrides[("s", "/users/{id}/profiles")] == {2: Archetype.DOCUMENT}

    def test_bad_override_archetype_is_error(self, tmp_path):
        with pytest.raises(ConfigError, match="archetype"):
            load_config(write_config(tmp_path, {
                "archetype_overrides": [{
                    "spec_id": "s", "path": "/x", "segment_index": 0,
                    "archetype": "thing"}],
            }))

    def test_negative_segment_index_is_error(self, tmp_path):
        with pytest.raises(ConfigError, match="segment_index must be a non-negative integer"):
            load_config(write_config(tmp_path, {
                "archetype_overrides": [{
                    "spec_id": "s", "path": "/x", "segment_index": -1,
                    "archetype": "document"}],
            }))

    def test_repeated_override_is_error(self, tmp_path):
        entry = {"spec_id": "s", "path": "/x/y", "segment_index": 1, "archetype": "document"}
        with pytest.raises(ConfigError, match=r"archetype_overrides\[1\]: segment 1 .* already"):
            load_config(write_config(tmp_path, {
                "archetype_overrides": [entry, {**entry, "archetype": "collection"}],
            }))

    def test_bad_output_format_is_error(self, tmp_path):
        with pytest.raises(ConfigError, match="output_format"):
            load_config(write_config(tmp_path, {"output_format": "xml"}))

    def test_config_that_is_not_an_object_is_error(self, tmp_path):
        path = write_config(tmp_path, ["Hyphens"])
        with pytest.raises(ConfigError) as exc:
            load_config(path)
        assert str(exc.value) == f"config file {path} must contain a JSON object"

    @pytest.mark.parametrize("doc, message", [
        ({"enabled_rules": "Hyphens"}, "enabled_rules: expected a list of rule names"),
        ({"lexicon_path": 1}, "lexicon_path: expected a string or null"),
        ({"exempt_parameter_names": "no"}, "exempt_parameter_names: expected true or false"),
        ({"archetype_overrides": {}}, "archetype_overrides: expected a list"),
        ({"archetype_overrides": ["x"]}, "archetype_overrides[0]: expected an object"),
        ({"archetype_overrides": [{"spec_id": "s", "path": "/x"}]},
         "archetype_overrides[0]: missing field(s): archetype, segment_index"),
        ({"archetype_overrides": [{"spec_id": 1, "path": "/x", "segment_index": 0,
                                   "archetype": "document"}]},
         "archetype_overrides[0]: spec_id and path must be strings"),
        ({"archetype_overrides": [{"spec_id": "s", "path": None, "segment_index": 0,
                                   "archetype": "document"}]},
         "archetype_overrides[0]: spec_id and path must be strings"),
    ], ids=["rules-not-list", "lexicon-not-string", "exempt-not-bool", "overrides-not-list",
            "override-not-object", "override-missing-fields", "override-spec-id-not-string",
            "override-path-not-string"])
    def test_malformed_setting_message(self, tmp_path, doc, message):
        with pytest.raises(ConfigError) as exc:
            load_config(write_config(tmp_path, doc))
        assert str(exc.value) == message


class TestLintCommand:
    def test_clean_fixture_exits_zero(self, capsys):
        assert main(["lint", str(CLEAN)]) == EXIT_CLEAN
        out = capsys.readouterr().out
        assert "0 violations" in out

    def test_violating_fixture_exits_one(self, capsys):
        assert main(["lint", str(CREATE_USER)]) == EXIT_VIOLATIONS
        out = capsys.readouterr().out
        assert "NoCRUDNames" in out and "Hyphens" in out

    def test_malformed_file_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("not: [valid", encoding="utf-8")
        assert main(["lint", str(bad)]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert "bad.yaml" in err

    def test_bad_file_does_not_stop_others(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("{{{{", encoding="utf-8")
        assert main(["lint", str(bad), str(CLEAN)]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert "clean.yaml" in captured.out  # the good file still got linted

    def test_each_error_line_names_its_file_once(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        Path("x.json").write_text('{"name": "demo"}', encoding="utf-8")
        Path("list.json").write_text("[1, 2]", encoding="utf-8")
        assert main(["lint", "x.json", "list.json", "missing.json", str(CLEAN)]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "x.json: no 'paths' section and no 'swagger'/'openapi' version marker",
            "list.json: document is not a JSON/YAML object",
            f"missing.json: cannot read file: {os.strerror(errno.ENOENT)}",
        ]
        assert captured.out == f"{CLEAN}: 0 violations\n"

    def test_json_format_one_document_per_spec(self, capsys):
        assert main(["lint", str(CLEAN), str(CREATE_USER), "--format", "json"]) == 1
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        for line in lines:
            json.loads(line)

    def test_config_enabling_only_hyphens(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"enabled_rules": ["Hyphens"]})
        assert main(["lint", str(CREATE_USER), "--config", cfg]) == EXIT_VIOLATIONS
        out = capsys.readouterr().out
        assert "Hyphens" in out and "NoCRUDNames" not in out

    @pytest.mark.parametrize("own_spec, code", [(True, EXIT_VIOLATIONS), (False, EXIT_CLEAN)])
    def test_config_override_applies_to_its_own_spec_only(self, tmp_path, capsys, own_spec, code):
        spec = tmp_path / "act.json"
        spec.write_text(json.dumps({
            "openapi": "3.0.0", "info": {"title": "T", "version": "1"},
            "paths": {"/users/{id}/activation": {"post": {
                "summary": "Activate a user",
                "parameters": [{"name": "id", "in": "path", "required": True,
                                "schema": {"type": "string"}}],
                "responses": {"204": {"description": "Activated"}}}}},
        }), encoding="utf-8")
        cfg = write_config(tmp_path, {"archetype_overrides": [{
            "spec_id": str(spec) if own_spec else "other.json",
            "path": "/users/{id}/activation", "segment_index": 2, "archetype": "controller"}]})
        assert main(["lint", str(spec), "--config", cfg]) == code
        assert ("VerbController 'activation'" in capsys.readouterr().out) is own_spec

    @pytest.mark.parametrize("spec_id, lint_path", [
        ("ov.json", "ov.json"), ("ov.json", "./ov.json"), ("./ov.json", "ov.json"),
        ("sub/../ov.json", "./ov.json"), ("ov.json", "{tmp}/ov.json"), ("{tmp}/ov.json", "ov.json"),
    ], ids=["same", "dot-slash-path", "dot-slash-id", "parent-step-id", "absolute-path",
            "absolute-id"])
    def test_config_override_matches_path_however_spelled(self, tmp_path, monkeypatch, capsys,
                                                            spec_id, lint_path):
        (tmp_path / "ov.json").write_text(OVERRIDDEN_SPEC, encoding="utf-8")
        spec_id, lint_path = (s.format(tmp=tmp_path) for s in (spec_id, lint_path))
        cfg = override_config(tmp_path, spec_id)
        monkeypatch.chdir(tmp_path)
        assert main(["lint", "--config", cfg, lint_path]) == EXIT_VIOLATIONS
        out = capsys.readouterr().out
        assert out.startswith(f"{lint_path}: 2 violations\n")  # the spec id as given
        assert "VerbController 'activation'" in out and "SingularNoun 'settings'" in out

    def test_config_override_under_two_spellings_must_agree(self, tmp_path, monkeypatch, capsys):
        shutil.copy(CREATE_USER, tmp_path / "s.json")
        entry = {"path": "/users/{id}/activation", "segment_index": 2}
        agree = [{**entry, "spec_id": spec_id, "archetype": "controller"}
                 for spec_id in ("s.json", "./s.json")]
        monkeypatch.chdir(tmp_path)
        assert main(["lint", "--config", write_config(tmp_path, {"archetype_overrides": agree}),
                     "s.json"]) == EXIT_VIOLATIONS
        differ = [agree[0], {**agree[1], "archetype": "document"}]
        assert main(["lint", "--config", write_config(tmp_path, {"archetype_overrides": differ}),
                     "s.json"]) == EXIT_ERROR
        assert capsys.readouterr().err == (
            "configuration error: archetype_overrides: segment 2 of '/users/{id}/activation' in "
            "'s.json' is overridden under two spellings of its path, to different archetypes\n")

    @pytest.mark.parametrize("path, index, message", [
        ("/users", 9, "segment_index 9 is past the last segment of '/users', which has 1"),
        ("/users/{id}/activation", 3,
         "segment_index 3 is past the last segment of '/users/{id}/activation', which has 3"),
        ("/", 0, "segment_index 0 is past the last segment of '/', which has 0"),
        ("", 0, "path must not be empty"),
    ], ids=["past-one-segment", "past-three-segments", "root", "empty-path"])
    def test_config_override_that_can_never_apply_is_error(self, tmp_path, capsys, path, index,
                                                          message):
        # The override's own path shows, at load, that no template can match it.
        cfg = write_config(tmp_path, {"archetype_overrides": [
            {"spec_id": str(CREATE_USER), "path": "/users/{id}/activation", "segment_index": 2,
             "archetype": "controller"},
            {"spec_id": str(CREATE_USER), "path": path, "segment_index": index,
             "archetype": "document"}]})
        assert main(["lint", "--config", cfg, str(CREATE_USER)]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"configuration error: archetype_overrides[1]: {message}\n"

    @pytest.mark.parametrize("path", ["users/{id}/activation", "/users/{id}/activation/"])
    def test_config_override_path_is_split_as_a_template(self, tmp_path, capsys, path):
        # No leading "/", or a trailing one, still leaves segment 2: each path splits
        # as a spec's template of that text does, and may match one.
        spec = dict(json.loads(OVERRIDDEN_SPEC), paths={path: {"post": {
            "responses": {"204": {"description": "x"}}}}})
        (tmp_path / "ov.json").write_text(json.dumps(spec), encoding="utf-8")
        cfg = write_config(tmp_path, {"archetype_overrides": [
            {"spec_id": str(tmp_path / "ov.json"), "path": path, "segment_index": 2,
             "archetype": "controller"}]})
        assert main(["lint", "--config", cfg, str(tmp_path / "ov.json")]) == EXIT_VIOLATIONS
        assert "VerbController 'activation'" in capsys.readouterr().out

    @pytest.mark.parametrize("exempt, code, rules", [
        (None, EXIT_CLEAN, []), (False, EXIT_VIOLATIONS, ["NoUnderscores"]),
    ], ids=["default", "parameter-names-checked"])
    def test_config_exempt_parameter_names(self, tmp_path, capsys, exempt, code, rules):
        spec = tmp_path / "user.json"
        spec.write_text(json.dumps({
            "openapi": "3.0.0", "info": {"title": "T", "version": "1"},
            "paths": {"/users/{user_id}": {"get": {
                "parameters": [{"name": "user_id", "in": "path", "required": True}],
                "responses": {"200": {"description": "OK",
                                      "content": {"application/json": {}}}}}}},
        }), encoding="utf-8")
        args = ["lint", "--format", "json", str(spec)]
        if exempt is not None:
            args += ["--config", write_config(tmp_path, {"exempt_parameter_names": exempt})]
        assert main(args) == code
        report = json.loads(capsys.readouterr().out)
        assert [v["rule"] for v in report["violations"]] == rules

    def test_config_typo_exits_two(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"enabled_rules": ["Hyphen"]})
        assert main(["lint", str(CLEAN), "--config", cfg]) == EXIT_ERROR
        assert "configuration error" in capsys.readouterr().err

    def test_csv_config_format_exits_two(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"output_format": "csv"})
        assert main(["lint", str(CLEAN), "--config", cfg]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("configuration error: output_format: csv")

    def test_repeated_runs_are_byte_identical(self, capsys):
        main(["lint", str(CREATE_USER), str(CLEAN)])
        first = capsys.readouterr().out
        main(["lint", str(CREATE_USER), str(CLEAN)])
        second = capsys.readouterr().out
        assert first == second

    def test_lexicon_env_var(self, tmp_path, capsys, monkeypatch):
        # A lexicon that treats "users" as invariant makes /users fail PluralNoun.
        lexicon = tmp_path / "lex.txt"
        lexicon.write_text("[invariant]\nusers\n", encoding="utf-8")
        monkeypatch.setenv("REST_LINT_LEXICON", str(lexicon))
        assert main(["lint", str(CLEAN)]) == EXIT_VIOLATIONS
        assert "PluralNoun" in capsys.readouterr().out

    def test_broken_lexicon_env_exits_two(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REST_LINT_LEXICON", str(tmp_path / "missing.txt"))
        assert main(["lint", str(CLEAN)]) == EXIT_ERROR

    def test_relative_lexicon_path_is_read_beside_the_config(self, tmp_path, capsys,
                                                             monkeypatch):
        (tmp_path / "conf").mkdir()
        (tmp_path / "elsewhere").mkdir()
        lexicon = tmp_path / "conf" / "words.txt"
        lexicon.write_text("[invariant]\nusers\n", encoding="utf-8")
        relative = tmp_path / "conf" / "cfg.json"
        relative.write_text(json.dumps({"lexicon_path": "words.txt"}), encoding="utf-8")
        absolute = write_config(tmp_path, {"lexicon_path": str(lexicon)})
        monkeypatch.chdir(tmp_path / "elsewhere")
        runs = []
        for config in (absolute, str(relative)):
            runs.append((main(["lint", "--config", config, str(CLEAN)]), capsys.readouterr()))
        assert runs[0][0] == EXIT_VIOLATIONS and "PluralNoun" in runs[0][1].out
        assert runs[1] == runs[0]

    def test_missing_lexicon_beside_config_in_working_directory(self, tmp_path, capsys,
                                                                monkeypatch):
        write_config(tmp_path, {"lexicon_path": "missing.txt"})
        monkeypatch.chdir(tmp_path)
        assert main(["lint", "--config", "config.json", str(CLEAN)]) == EXIT_ERROR
        assert capsys.readouterr().err.startswith(
            "configuration error: cannot load lexicon missing.txt: [Errno 2] ")

    @pytest.mark.parametrize("command", ["lint", "aggregate"])
    @pytest.mark.parametrize("case", ["config-not-utf8", "config-too-deep",
                                      "env-lexicon-not-utf8", "config-lexicon-not-utf8"])
    def test_unreadable_config_or_lexicon_exits_two(self, tmp_path, command, case):
        project = tmp_path / "corpus" / "p"
        project.mkdir(parents=True)
        shutil.copy(CLEAN, project / CLEAN.name)
        lexicon = tmp_path / "lex.txt"
        lexicon.write_bytes(b"[invariant]\nusers\xff\n")
        config = {
            "config-not-utf8": b"\xff{}",
            "config-too-deep": b"[" * 100_000,
            "config-lexicon-not-utf8": json.dumps({"lexicon_path": str(lexicon)}).encode(),
        }.get(case)
        args = [command, str(CLEAN if command == "lint" else tmp_path / "corpus")]
        if config is not None:
            (tmp_path / "bad.cfg").write_bytes(config)
            args += ["--config", str(tmp_path / "bad.cfg")]
        env = {"REST_LINT_LEXICON": str(lexicon)} if case == "env-lexicon-not-utf8" else {}
        proc = run_cli(*args, **env)
        assert (proc.returncode, proc.stdout) == (EXIT_ERROR, "")
        assert proc.stderr.startswith("configuration error: ")
        assert proc.stderr.count("\n") == 1

    @pytest.mark.parametrize("fmt,golden", [("text", "lint.txt"), ("json", "lint.json")])
    def test_corpus_output_matches_golden(self, fmt, golden, capsys, monkeypatch):
        # The golden files are `rest-lint lint --format FMT <specs>` run inside
        # tests/fixtures/corpus over every spec there, in sorted name order.
        specs = sorted(p.name for p in CORPUS.iterdir() if p.name != "labels.json")
        monkeypatch.chdir(CORPUS)
        assert main(["lint", "--format", fmt, *specs]) == EXIT_VIOLATIONS
        assert capsys.readouterr().out == (GOLDEN / golden).read_text(encoding="utf-8")

    @pytest.mark.parametrize("fmt,golden", [("text", "lint.txt"), ("json", "lint.json")])
    def test_pure_python_yaml_output_matches_golden(self, fmt, golden, capsys, monkeypatch):
        # The pure-Python parser alone reads every YAML spec.
        monkeypatch.setattr(model, "_FAST_YAML", None)
        self.test_corpus_output_matches_golden(fmt, golden, capsys, monkeypatch)

    @pytest.mark.parametrize("text", [
        "a: " + "[" * 100_000 + "]" * 100_000,
        "- " * 200_000 + "x",
        "a: " + "{b: " * 50_000 + "}" * 50_000,
    ], ids=["flow-sequences", "block-sequences", "flow-mappings"])
    def test_deep_yaml_exits_two_without_crashing(self, tmp_path, text):
        # LibYAML's own composer overflows the C stack on these; a subprocess
        # makes such a crash fail the test instead of killing the suite.
        target = tmp_path / "deep.yaml"
        target.write_text(text, encoding="utf-8")
        proc = run_cli("lint", str(target))
        assert proc.returncode == EXIT_ERROR, proc.stderr[-300:]
        assert proc.stderr == f"{target}: document nesting too deep\n"

    @needs_int_digit_limit
    @pytest.mark.parametrize("name, text, error", [
        ("long.json", LONG_INTEGER_JSON, "invalid JSON: Exceeds the limit"),
        ("hex.yaml", "swagger: 0x" + "f" * 5000 + "\npaths: {}\n", "number too long: "),
    ], ids=["json-decimal", "yaml-hexadecimal"])
    def test_long_integer_exits_two(self, tmp_path, name, text, error):
        # A YAML hexadecimal integer parses at any length; its str() does not.
        target = tmp_path / name
        target.write_text(text, encoding="utf-8")
        proc = run_cli("lint", str(target), str(CLEAN))
        assert proc.returncode == EXIT_ERROR, proc.stderr[-300:]
        assert proc.stderr.startswith(f"{target}: {error}")
        assert proc.stderr.count("\n") == 1
        assert proc.stdout.startswith(f"{CLEAN}: 0 violations")

    def test_alias_amplification_exits_two(self, tmp_path):
        target = tmp_path / "amplified.yaml"
        target.write_text(amplification_yaml(), encoding="utf-8")
        proc = run_cli("lint", "--format", "json", str(target))
        assert proc.returncode == EXIT_ERROR, proc.stderr[-300:]
        assert proc.stderr == f"{target}: {MODEL_TOO_LARGE}"
        assert proc.stdout == ""

    def test_report_is_written_whatever_the_stdout_encoding(self, tmp_path, capsys):
        # The report goes out as UTF-8 bytes even where stdout's text layer is ASCII.
        target = tmp_path / "\u00fcn\u00ef.json"
        shutil.copy(CORPUS / "create_user.json", target)
        proc = run_cli("lint", "--format", "text", str(target), text=False,
                       PYTHONIOENCODING="ascii")
        assert proc.returncode == EXIT_VIOLATIONS
        assert proc.stderr == b""
        assert main(["lint", "--format", "text", str(target)]) == EXIT_VIOLATIONS
        assert proc.stdout == capsys.readouterr().out.encode("utf-8")

    def test_closed_stdout_ends_quietly(self):
        # 600 reports, ~370 KB of json: more than a pipe holds, so writes are
        # still to come when the reader closes its end after the first read.
        specs = [str(CREATE_USER), str(CORPUS / "content_type.yaml")] * 300
        proc = subprocess.Popen(
            [sys.executable, "-m", "rest_lint.cli", "lint", "--format", "json", *specs],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=cli_env())
        try:
            first = os.read(proc.stdout.fileno(), 100)
            proc.stdout.close()
            _, stderr = proc.communicate(timeout=120)
        finally:
            proc.kill()
        assert first.startswith(b'{"spec_id":')
        assert (proc.returncode, stderr) == (EXIT_STDOUT_CLOSED, b"")

    def test_closed_pipe_leaves_no_descriptor_open(self, monkeypatch):
        opened = []

        def recording_open(*args, **kwargs):
            opened.append(real_open(*args, **kwargs))
            return opened[-1]

        real_open = os.open
        read_end, write_end = os.pipe()
        os.close(read_end)
        out = io.TextIOWrapper(io.FileIO(write_end, "w"), "utf-8")
        monkeypatch.setattr(os, "open", recording_open)
        try:
            with contextlib.redirect_stdout(out):
                assert main(["lint", str(CREATE_USER)]) == EXIT_STDOUT_CLOSED
            assert opened
            for fd in opened:  # devnull, closed once stdout points to it
                with pytest.raises(OSError):
                    os.fstat(fd)
        finally:
            out.close()  # what is left goes to devnull

    def test_short_writes_still_write_every_byte(self):
        class ShortWrites(io.BytesIO):
            def write(self, data) -> int:  # takes at most 7 bytes, as write(2) may take fewer
                return super().write(bytes(data[:7]))

        argv = ["lint", "--format", "json", str(CREATE_USER), str(CLEAN)]
        status, expected, _ = _run_main(argv)
        out = io.TextIOWrapper(ShortWrites(), "utf-8")
        with contextlib.redirect_stdout(out):
            assert main(argv) == status == EXIT_VIOLATIONS
        out.flush()
        assert out.buffer.getvalue() == expected and len(expected) > 7

    @pytest.mark.parametrize("write, message", [
        (lambda data: 0, "cannot write to stdout: no bytes taken\n"),
        (lambda data: None, "cannot write to stdout: no bytes taken\n"),
        (no_space, f"cannot write to stdout: {os.strerror(errno.ENOSPC)}\n"),
    ], ids=["takes-0-bytes", "takes-none", "no-space"])
    def test_failed_write_is_one_stderr_line(self, write, message, capsys):
        class FailingWrites(io.BytesIO):
            calls = 0

            def write(self, data):
                self.calls += 1
                assert self.calls < 100, "a write that takes no bytes is tried again and again"
                return write(data)

        argv = ["lint", "--format", "json", str(CREATE_USER), str(CLEAN)]
        with contextlib.redirect_stdout(io.TextIOWrapper(FailingWrites(), "utf-8")):
            assert main(argv) == EXIT_ERROR
        assert capsys.readouterr().err == message

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_full_disk_exits_two(self):
        with open("/dev/full", "wb") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "rest_lint.cli", "lint", str(CREATE_USER)],
                stdout=full, stderr=subprocess.PIPE, text=True, env=cli_env(), timeout=120)
        assert (proc.returncode, proc.stderr) == (
            EXIT_ERROR, f"cannot write to stdout: {os.strerror(errno.ENOSPC)}\n")

    def test_stdout_closed_before_the_run_ends_quietly(self):
        proc = subprocess.run(
            [sys.executable, "-m", "rest_lint.cli", "lint", str(CREATE_USER)],
            stderr=subprocess.PIPE, env=cli_env(), timeout=120,
            preexec_fn=lambda: os.close(1))  # as ">&-" does
        assert (proc.returncode, proc.stderr) == (EXIT_STDOUT_CLOSED, b"")

    @pytest.mark.parametrize("name, path, shown", [
        ("api.json", "/Users\\ud800", "  /Users\\ud800 Lowercase 'Users\\ud800'"),
        ("bad\udcff.json", "/users", "bad\\udcff.json: 1 violation\n"),
    ], ids=["document-escape", "undecodable-file-name"])
    def test_lone_surrogate_in_text_report_is_escaped(self, tmp_path, name, path, shown):
        target = tmp_path / name
        target.write_text('{"swagger": "2.0", "paths": {"%s": {"get": {"responses": {"200": {}}}}}}'
                          % path, encoding="utf-8")
        proc = run_cli("lint", "--format", "text", str(target))
        assert proc.returncode == EXIT_VIOLATIONS, proc.stderr[-300:]
        assert proc.stderr == ""
        assert shown in proc.stdout

    def test_yaml_merge_keys_lint_like_the_expanded_file(self, tmp_path, capsys, monkeypatch):
        merged = (
            "openapi: 3.0.0\ninfo: {title: T, version: '1'}\n"
            "x-ok: &ok {description: OK, content: {application/json: {}}}\n"
            "x-get: &get {summary: Delete users, responses: {'200': *ok}}\n"
            "paths:\n"
            "  /users: {get: {<<: *get, operationId: listUsers}}\n"
            "  /User_list/:\n    get:\n      <<: [*get, {operationId: getAll, summary: Get}]\n"
            "      summary: Remove users\n"
        )
        expanded = (
            "openapi: 3.0.0\ninfo: {title: T, version: '1'}\n"
            "paths:\n"
            "  /users:\n    get:\n      summary: Delete users\n      operationId: listUsers\n"
            "      responses: {'200': {description: OK, content: {application/json: {}}}}\n"
            "  /User_list/:\n    get:\n      summary: Remove users\n      operationId: getAll\n"
            "      responses: {'200': {description: OK, content: {application/json: {}}}}\n"
        )
        outputs = []
        for directory, text in (("merged", merged), ("expanded", expanded)):
            (tmp_path / directory).mkdir()
            (tmp_path / directory / "api.yaml").write_text(text, encoding="utf-8")
            monkeypatch.chdir(tmp_path / directory)
            for fmt in ("text", "json"):
                assert main(["lint", "--format", fmt, "api.yaml"]) == EXIT_VIOLATIONS
                captured = capsys.readouterr()
                assert captured.err == ""
                outputs.append(captured.out)
        assert outputs[:2] == outputs[2:]
        assert "Lowercase" in outputs[0] and "DescriptionType" in outputs[0]


def build_corpus(tmp_path: Path) -> Path:
    root = tmp_path / "corpus"
    (root / "alpha").mkdir(parents=True)
    (root / "bravo").mkdir()
    (root / "charlie" / "nested").mkdir(parents=True)
    (root / "delta").mkdir()  # project with no spec files
    shutil.copy(CLEAN, root / "alpha" / "api.yaml")
    shutil.copy(CREATE_USER, root / "bravo" / "api.json")
    shutil.copy(CORPUS / "hyphens.yaml", root / "charlie" / "api.yaml")
    shutil.copy(CORPUS / "no_underscores.yaml", root / "charlie" / "nested" / "api2.yaml")
    return root


def fixture_corpus(tmp_path: Path) -> Path:
    """One project per spec in tests/fixtures/corpus, named after the spec's stem."""
    root = tmp_path / "corpus"
    for spec in CORPUS.iterdir():
        if spec.name != "labels.json":
            (root / spec.stem).mkdir(parents=True)
            shutil.copy(spec, root / spec.stem / spec.name)
    return root


# Hand-computed: bravo has NoCRUDNames 1, Hyphens 1, Lowercase 1;
# charlie has Hyphens 2, Lowercase 1, NoUnderscores 1; 4 projects total.
EXPECTED_CSV = """rule,occurrences,projects,percentage
RC401,0,0,0
PluralNoun,0,0,0
SingularNoun,0,0,0
NoTrailingSlash,0,0,0
VerbController,0,0,0
NoCRUDNames,1,1,25
ContentType,0,0,0
DescriptionType,0,0,0
ForwardSlash,0,0,0
NoTunnel,0,0,0
GETRetrieve,0,0,0
Hyphens,3,2,50
Lowercase,2,2,50
NoUnderscores,1,1,25
"""


class TestAggregateCommand:
    def test_small_corpus_csv_matches_golden(self, tmp_path, capsys):
        root = build_corpus(tmp_path)
        assert main(["aggregate", str(root), "--format", "csv"]) == EXIT_VIOLATIONS
        assert capsys.readouterr().out == EXPECTED_CSV

    @pytest.mark.parametrize("fmt,golden", [
        ("text", "aggregate.txt"), ("json", "aggregate.json"), ("csv", "aggregate.csv"),
    ])
    def test_fixture_corpus_output_matches_golden(self, fmt, golden, tmp_path, capsys):
        # The golden files are `rest-lint aggregate --format FMT DIR` over fixture_corpus.
        root = fixture_corpus(tmp_path)
        assert main(["aggregate", "--format", fmt, str(root)]) == EXIT_VIOLATIONS
        assert capsys.readouterr().out == (GOLDEN / golden).read_text(encoding="utf-8")

    @pytest.mark.parametrize("spec_id, code", [("shop", EXIT_VIOLATIONS), ("./shop", EXIT_CLEAN)])
    def test_override_names_a_project_as_it_is(self, tmp_path, monkeypatch, capsys, spec_id,
                                               code):
        # A project's spec id is its directory's name, not a path: "./shop" is another id.
        (tmp_path / "corpus" / "shop").mkdir(parents=True)
        (tmp_path / "corpus" / "shop" / "api.json").write_text(OVERRIDDEN_SPEC, encoding="utf-8")
        monkeypatch.chdir(tmp_path / "corpus")
        assert main(["aggregate", "--config", override_config(tmp_path, spec_id), "--format",
                     "csv", "."]) == code
        rows = capsys.readouterr().out.splitlines()
        assert ("VerbController,1,1,100" in rows) is (code == EXIT_VIOLATIONS)

    def test_clean_project_exits_zero(self, tmp_path, capsys):
        root = tmp_path / "corpus"
        (root / "only").mkdir(parents=True)
        shutil.copy(CLEAN, root / "only" / "api.yaml")
        assert main(["aggregate", str(root), "--format", "csv"]) == EXIT_CLEAN
        lines = capsys.readouterr().out.splitlines()
        assert all(line.endswith(",0,0,0") for line in lines[1:])

    def test_empty_directory_exits_two(self, tmp_path, capsys):
        root = tmp_path / "corpus"
        root.mkdir()
        assert main(["aggregate", str(root)]) == EXIT_ERROR
        assert "empty corpus" in capsys.readouterr().err

    def test_missing_directory_exits_two(self, tmp_path):
        assert main(["aggregate", str(tmp_path / "nowhere")]) == EXIT_ERROR

    def test_unlistable_directory_exits_two(self, tmp_path, monkeypatch, capsys):
        # Mode bits keep no directory from root, who may run the suite, so the
        # listing fails by a patched iterdir.
        root = build_corpus(tmp_path)

        def refuse(self):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(self))

        monkeypatch.setattr(Path, "iterdir", refuse)
        assert main(["aggregate", str(root)]) == EXIT_ERROR
        assert capsys.readouterr() == ("", f"{root}: cannot list directory: "
                                           f"{os.strerror(errno.EACCES)}\n")

    def test_unlistable_subdirectory_exits_two_and_others_still_lint(self, tmp_path,
                                                                   monkeypatch, capsys):
        # A spec the listing cannot reach must not leave its project counted as
        # clean without a word. The listing fails by a patched os.scandir, which
        # os.walk calls.
        root = build_corpus(tmp_path)
        hidden = root / "alpha" / "api"
        hidden.mkdir()
        shutil.copy(CREATE_USER, hidden / "users.json")
        scandir = os.scandir

        def refuse(path="."):
            if os.fspath(path) == str(hidden):
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), os.fspath(path))
            return scandir(path)

        monkeypatch.setattr(os, "scandir", refuse)
        assert main(["aggregate", "--format", "csv", str(root)]) == EXIT_ERROR
        assert capsys.readouterr() == (EXPECTED_CSV, f"{hidden}: cannot list directory: "
                                                     f"{os.strerror(errno.EACCES)}\n")

    def test_unsearchable_file_exits_two_and_others_still_lint(self, tmp_path, monkeypatch,
                                                              capsys):
        # A directory that can be listed but not searched (mode r--) refuses the
        # stat of each file in it. Mode bits keep nothing from root, so the stat is
        # refused by a patched os.stat, the call aggregate makes.
        root = build_corpus(tmp_path)
        hidden = root / "bravo" / "users.json"
        shutil.copy(CREATE_USER, hidden)
        # A dangling link is no file: it is passed over without a line.
        (root / "bravo" / "gone.json").symlink_to(tmp_path / "nowhere.json")
        stat = os.stat

        def refuse(path, *args, **kwargs):
            if os.fspath(path) == str(hidden):
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(path))
            return stat(path, *args, **kwargs)

        monkeypatch.setattr(os, "stat", refuse)
        assert main(["aggregate", "--format", "csv", str(root)]) == EXIT_ERROR
        assert capsys.readouterr() == (EXPECTED_CSV, f"{hidden}: cannot read file: "
                                                     f"{os.strerror(errno.EACCES)}\n")

    def test_files_are_linted_in_path_order_and_directory_links_not_followed(self, tmp_path,
                                                                             capsys):
        # By path parts, x/y.yaml comes before x-y.json, though "/" sorts after "-".
        root = tmp_path / "corpus"
        (root / "p1" / "x").mkdir(parents=True)
        (root / "p1" / "x" / "y.yaml").write_text("a: 1\n", encoding="utf-8")
        (root / "p1" / "x-y.json").write_text('{"b": 2}', encoding="utf-8")
        (tmp_path / "elsewhere").mkdir()
        shutil.copy(CREATE_USER, tmp_path / "elsewhere" / "api.json")
        (root / "p1" / "linked").symlink_to(tmp_path / "elsewhere", target_is_directory=True)
        assert main(["aggregate", "--format", "csv", str(root)]) == EXIT_CLEAN
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            f"skipping {root / 'p1' / 'x' / 'y.yaml'}: not an API description",
            f"skipping {root / 'p1' / 'x-y.json'}: not an API description",
        ]
        assert all(row.endswith(",0,0,0") for row in captured.out.splitlines()[1:])

    def test_non_spec_files_skipped_with_notice(self, tmp_path, capsys):
        root = tmp_path / "corpus"
        (root / "p1").mkdir(parents=True)
        shutil.copy(CLEAN, root / "p1" / "api.yaml")
        (root / "p1" / "package.json").write_text('{"name": "demo"}', encoding="utf-8")
        assert main(["aggregate", str(root)]) == EXIT_CLEAN
        assert "skipping" in capsys.readouterr().err

    def test_unparseable_project_file_exits_two(self, tmp_path, capsys):
        root = tmp_path / "corpus"
        (root / "p1").mkdir(parents=True)
        (root / "p1" / "api.yaml").write_text("a: [", encoding="utf-8")
        shutil.copy(CLEAN, root / "p1" / "ok.yaml")
        assert main(["aggregate", str(root)]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert "api.yaml" in captured.err
        # the summary still came out for the files that parsed
        assert captured.out.startswith("total projects: 1")

    @needs_int_digit_limit
    def test_long_integer_file_exits_two_and_others_still_lint(self, tmp_path):
        root = build_corpus(tmp_path)
        bad = root / "bravo" / "long.json"
        bad.write_text(LONG_INTEGER_JSON, encoding="utf-8")
        proc = run_cli("aggregate", "--format", "csv", str(root))
        assert proc.returncode == EXIT_ERROR, proc.stderr[-300:]
        assert proc.stderr.startswith(f"{bad}: invalid JSON: Exceeds the limit")
        assert proc.stderr.count("\n") == 1
        assert proc.stdout == EXPECTED_CSV

    def test_alias_amplification_exits_two_and_others_still_lint(self, tmp_path):
        root = build_corpus(tmp_path)
        bad = root / "bravo" / "amplified.yaml"
        bad.write_text(amplification_yaml(), encoding="utf-8")
        proc = run_cli("aggregate", "--format", "csv", str(root))
        assert proc.returncode == EXIT_ERROR, proc.stderr[-300:]
        assert proc.stderr == f"{bad}: {MODEL_TOO_LARGE}"
        assert proc.stdout == EXPECTED_CSV

    def test_repeated_runs_identical(self, tmp_path, capsys):
        root = build_corpus(tmp_path)
        main(["aggregate", str(root), "--format", "csv"])
        first = capsys.readouterr().out
        main(["aggregate", str(root), "--format", "csv"])
        second = capsys.readouterr().out
        assert first == second

    def test_violations_union_per_project(self, tmp_path, capsys):
        # the same spec twice in one project must not double-count
        root = tmp_path / "corpus"
        (root / "p1").mkdir(parents=True)
        shutil.copy(CREATE_USER, root / "p1" / "a.json")
        shutil.copy(CREATE_USER, root / "p1" / "b.json")
        main(["aggregate", str(root), "--format", "csv"])
        out = capsys.readouterr().out
        assert "NoCRUDNames,1,1,100" in out


class TestStartUp:
    def test_cli_import_loads_neither_dataclasses_nor_inspect(self):
        # Every rest-lint process pays for what importing the CLI loads; compare
        # against sys.modules before the import, which site may have filled.
        code = ("import sys; before = set(sys.modules); import rest_lint.cli; "
                "rest_lint.default_lexicon(); "
                "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))")
        path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=120, env={**os.environ, "PYTHONPATH": path})
        assert proc.returncode == 0, proc.stderr[-300:]
        assert proc.stdout == "[]\n"

    @staticmethod
    def run_loading(module: str, cwd: Path, *argv: str) -> tuple[int, str, str, str]:
        """Exit status, stdout, stderr before its last line, and that line, which
        says whether module was loaded after the import and after main, of the CLI
        in a fresh interpreter: in-process tests import yaml and json themselves."""
        code = (f"import sys; import rest_lint.cli as cli; loaded = [{module!r} in sys.modules]; "
                f"status = cli.main(sys.argv[1:]); loaded.append({module!r} in sys.modules); "
                "sys.stderr.write(f'\\n{loaded}'); sys.exit(status)")
        proc = subprocess.run([sys.executable, "-c", code, *argv], cwd=cwd,
                              capture_output=True, text=True, timeout=120, env=cli_env())
        return (proc.returncode, proc.stdout, *proc.stderr.rpartition("\n")[::2])

    def test_pyyaml_is_imported_only_for_text_the_line_reader_leaves(self, tmp_path):
        def run(cwd: Path, *argv: str) -> tuple[int, str, str, str]:
            return self.run_loading("yaml", cwd, *argv)

        status, _, errors, loaded = run(CORPUS, "lint", "clean.yaml")
        assert (status, errors, loaded) == (EXIT_CLEAN, "", "[False, False]")
        specs = sorted(path.name for path in CORPUS.glob("*.yaml"))
        assert len(specs) == 15
        assert run(CORPUS, "lint", *specs)[2:] == ("", "[False, False]")
        workloads = _perfbench_workloads()
        for name in workloads.WORKLOADS:
            inputs = workloads.generate(name, 7, tmp_path / name, scale=0.05)
            assert run(inputs.directory, *inputs.argv)[3] == "[False, False]", name
        # A block scalar is left to the event loop, which imports PyYAML; the spec
        # still lints exactly like its JSON twin.
        for twin, text in [
            ("yaml", 'openapi: 3.0.0\npaths:\n  /Users_list/:\n    get:\n      responses:\n'
                     '        "200":\n          description: OK\nx-note: |\n  a block scalar\n'),
            ("json", json.dumps({"openapi": "3.0.0", "x-note": "a block scalar\n", "paths": {
                "/Users_list/": {"get": {"responses": {"200": {"description": "OK"}}}}}})),
        ]:
            (tmp_path / twin).mkdir()
            (tmp_path / twin / "spec").write_text(text, encoding="utf-8")
        from_yaml = run(tmp_path / "yaml", "lint", "--format", "json", "spec")
        from_json = run(tmp_path / "json", "lint", "--format", "json", "spec")
        assert (from_yaml[3], from_json[3]) == ("[False, True]", "[False, False]")
        assert from_yaml[:3] == from_json[:3] == (EXIT_VIOLATIONS, from_json[1], "")

    def test_json_is_imported_only_by_runs_that_read_or_write_json(self, tmp_path):
        def run(cwd: Path, *argv: str) -> tuple[int, str, str, str]:
            return self.run_loading("json", cwd, *argv)

        yaml_specs = sorted(path.name for path in CORPUS.glob("*.yaml"))
        assert len(yaml_specs) == 15
        assert run(CORPUS, "lint", *yaml_specs)[2:] == ("", "[False, False]")
        inputs = _perfbench_workloads().generate("lint-yaml", 7, tmp_path / "lint-yaml",
                                                 scale=0.05)
        assert run(inputs.directory, *inputs.argv)[2:] == ("", "[False, False]")
        yaml_corpus = tmp_path / "yaml-corpus"
        for name in yaml_specs:
            (yaml_corpus / name).mkdir(parents=True)
            shutil.copy(CORPUS / name, yaml_corpus / name / name)
        assert run(yaml_corpus, "aggregate", "--format", "csv", ".")[2:] == ("", "[False, False]")

        # A JSON spec, a json report or a config file loads json, and the bytes
        # are the golden files'.
        specs = sorted(p.name for p in CORPUS.iterdir() if p.name != "labels.json")
        golden = {name: (GOLDEN / name).read_text(encoding="utf-8")
                  for name in ("lint.txt", "lint.json", "aggregate.json")}
        assert run(CORPUS, "lint", *specs) == (
            EXIT_VIOLATIONS, golden["lint.txt"], "", "[False, True]")
        assert run(CORPUS, "lint", "--format", "json", *specs) == (
            EXIT_VIOLATIONS, golden["lint.json"], "", "[False, True]")
        assert specs[0] == "clean.yaml"
        assert run(CORPUS, "lint", "--format", "json", "clean.yaml") == (
            EXIT_CLEAN, golden["lint.json"].splitlines(keepends=True)[0], "", "[False, True]")
        config = write_config(tmp_path, {"output_format": "text"})
        assert run(CORPUS, "lint", "--config", config, "clean.yaml") == (
            EXIT_CLEAN, golden["lint.txt"].splitlines(keepends=True)[0], "", "[False, True]")
        assert run(fixture_corpus(tmp_path), "aggregate", "--format", "json", ".") == (
            EXIT_VIOLATIONS, golden["aggregate.json"], "", "[False, True]")


class TestGarbageCollection:
    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("argv", [
        ["lint", str(CLEAN)],
        ["lint", "--format", "csv", str(CLEAN)],  # argparse exits
    ], ids=["lint", "usage-error"])
    def test_main_restores_collector_state(self, enabled, argv, capsys):
        was_enabled = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            with contextlib.suppress(SystemExit):
                main(argv)
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was_enabled else gc.disable)()

    @pytest.mark.parametrize("command", ["aggregate", "lint"])
    def test_leaves_no_cyclic_garbage(self, tmp_path, capsys, collector_off, command):
        # A self-referencing YAML anchor makes a reference cycle, in the node
        # graph of a failed parse and in the data of a non-spec file; both come
        # after the last linted file, so only a collection on the error and
        # skip paths frees them.
        root = tmp_path / "corpus"
        (root / "p1").mkdir(parents=True)
        shutil.copy(CREATE_USER, root / "p1" / "api.json")
        shutil.copy(CLEAN, root / "p1" / "api.yaml")
        (root / "p1" / "broken.yaml").write_text("a: &x [*x]\nb: [\n", encoding="utf-8")
        (root / "p1" / "settings.yaml").write_text("&x [*x]\n", encoding="utf-8")
        files = [str(root / "p1" / name)
                 for name in ("api.json", "api.yaml", "broken.yaml", "settings.yaml")]
        assert main(["aggregate", str(root)] if command == "aggregate"
                    else ["lint", *files]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert "broken.yaml" in err and "settings.yaml" in err
        assert ("skipping" in err) is (command == "aggregate")
        assert gc.collect() == 0


# Fixture specs, mutated: what a user may hand the CLI by mistake.
_FUZZ_SOURCES = [CORPUS / name for name in (
    "clean.yaml", "create_user.json", "delete_via_get.json", "rc401.yaml", "no_tunnel.yaml")]
_REFS = ["#/nope", "other.yaml#/x", "#/paths", "#", "#/paths/~1orders"]
_INSERTS = [b"\\ud800", "é".encode(), b"\xed\xa0\x80", b"9" * 5000, b"{", b": ["]
_MUTATION = st.one_of(
    st.tuples(st.just("flip"), st.integers(0, 10**4), st.integers(1, 255)),
    st.tuples(st.just("truncate"), st.integers(0, 10**4)),
    st.tuples(st.just("duplicate-line"), st.integers(0, 10**4)),
    st.tuples(st.just("dangling-ref"), st.integers(0, 10**4), st.sampled_from(_REFS)),
    st.tuples(st.just("insert"), st.integers(0, 10**4), st.sampled_from(_INSERTS)),
)
_MUTATED_FILE = st.tuples(st.sampled_from(_FUZZ_SOURCES), st.lists(_MUTATION, max_size=3))


def _mutated(source: Path, mutations: list) -> bytes:
    data = source.read_bytes()
    for kind, at, *arg in mutations:
        at %= len(data) + 1
        if kind == "flip" and at < len(data):
            data = data[:at] + bytes([data[at] ^ arg[0]]) + data[at + 1:]
        elif kind == "truncate":
            data = data[:at]
        elif kind == "insert":
            data = data[:at] + arg[0] + data[at:]
        elif kind in ("duplicate-line", "dangling-ref"):
            lines = data.splitlines(keepends=True) or [b""]
            line = lines[at % len(lines)]
            if kind == "duplicate-line":  # a repeated key where the line holds one
                new = line
            else:  # a $ref key beside the line's own, in its file's syntax
                indent = line[:len(line) - len(line.lstrip())]
                ref = arg[0].encode()
                new = (indent + b'"$ref": "' + ref + b'",\n' if source.suffix == ".json"
                       else indent + b"$ref: '" + ref + b"'\n")
            lines.insert(at % len(lines), new)
            data = b"".join(lines)
    return data


def _run_main(argv: list[str]) -> tuple[int, bytes, list[str]]:
    """cli.main in-process: its exit status, stdout bytes and stderr lines.

    The CLI writes reports to stdout.buffer; stderr escapes as sys.stderr does.
    """
    out = io.TextIOWrapper(io.BytesIO(), "utf-8")
    err = io.TextIOWrapper(io.BytesIO(), "utf-8", errors="backslashreplace")
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(argv)
    out.flush()
    err.flush()
    return status, out.buffer.getvalue(), err.buffer.getvalue().decode().splitlines()


class TestCliFuzz:
    """Every input ends in a report (exit 0/1) or in exit 2 with one stderr line
    per bad file; any other exception fails."""

    @settings(max_examples=40, deadline=None)
    @given(st.lists(_MUTATED_FILE, min_size=1, max_size=3))
    def test_lint_reports_or_names_each_bad_file_once(self, files):
        with tempfile.TemporaryDirectory() as tmp:
            paths = []
            for i, (source, mutations) in enumerate(files):
                path = Path(tmp) / f"f{i}{source.suffix}"
                path.write_bytes(_mutated(source, mutations))
                paths.append(str(path))
            status, out, err = _run_main(["lint", *paths])
        named = [line.split(": ", 1)[0] for line in err]
        assert len(named) == len(set(named)) and set(named) <= set(paths), err
        if status == EXIT_ERROR:
            assert err
        else:
            assert status in (EXIT_CLEAN, EXIT_VIOLATIONS) and not err and out
        assert bool(out) == (len(named) < len(paths))

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.lists(_MUTATED_FILE, min_size=1, max_size=2), min_size=1, max_size=3))
    def test_aggregate_reports_or_names_each_bad_file_once(self, projects):
        with tempfile.TemporaryDirectory() as tmp:
            files = []
            for p, project in enumerate(projects):
                (Path(tmp) / f"p{p}").mkdir()
                for i, (source, mutations) in enumerate(project):
                    path = Path(tmp) / f"p{p}" / f"f{i}{source.suffix}"
                    path.write_bytes(_mutated(source, mutations))
                    files.append(str(path))
            status, out, err = _run_main(["aggregate", "--format", "csv", tmp])
        skipped = [line[len("skipping "):] for line in err if line.startswith("skipping ")]
        failed = [line for line in err if not line.startswith("skipping ")]
        named = [line.split(": ", 1)[0] for line in skipped + failed]
        assert len(named) == len(set(named)) and set(named) <= set(files), err
        assert all(line.endswith(": not an API description") for line in skipped), err
        assert status in ((EXIT_ERROR,) if failed else (EXIT_CLEAN, EXIT_VIOLATIONS))
        assert out.startswith(b"rule,")


# Path-template text: braces, slashes, accented, titlecase and full-width letters,
# a superscript digit, and lone-surrogate escapes as a JSON file may hold them.
_TEMPLATE_ATOM = st.sampled_from(
    ["/", "{", "}", "a", "Z", "-", "_", "é", "İ", "ǅ", "ß", "Ａ", "²", r"\ud800", r"\udc00"])
_TEMPLATE_LITERAL = st.lists(_TEMPLATE_ATOM, max_size=12).map(lambda atoms: "/" + "".join(atoms))


class TestGeneratedNonAsciiTemplates:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(_TEMPLATE_LITERAL, min_size=1, max_size=4))
    def test_lint_reports_every_finding_on_a_generated_template(self, literals):
        # Each literal is written into the JSON text as is, so its escapes decode there.
        items = ",".join(f'"{text}":{{"get":{{"responses":{{"200":{{"description":"x"}}}}}}}}'
                         for text in literals)
        templates = {json.loads(f'"{text}"') for text in literals}
        with tempfile.TemporaryDirectory() as tmp:
            spec = Path(tmp) / "spec.json"
            spec.write_text('{"swagger":"2.0","paths":{' + items + "}}", encoding="utf-8")
            for fmt in ("json", "text"):
                status, out, err = _run_main(["lint", "--format", fmt, str(spec)])
                assert status in (EXIT_CLEAN, EXIT_VIOLATIONS) and err == [] and out
                if fmt == "json":
                    report = json.loads(out)
                    assert {v["path"] for v in report["violations"]} <= templates
