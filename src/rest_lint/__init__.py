"""rest-lint: a linter for REST API descriptions.

Loads OpenAPI 3.x and Swagger 2.0 documents (JSON or YAML) into one
normalized model and checks them against 14 REST design rules covering
URI naming, HTTP method semantics, status codes, and media-type
metadata. Results can be reported per specification or aggregated over
a corpus of projects.
"""

from .errors import (
    ConfigError,
    EmptyCorpus,
    LexiconError,
    NotAnApiSpec,
    ParseError,
    RestLintError,
    UnsupportedFormat,
)
from .lexicon import (
    WordLexicon,
    crud_method_of,
    default_lexicon,
    is_plural,
    is_verb,
    load_lexicon,
    parse_lexicon,
)
from .model import (
    ApiSpecification,
    OperationRecord,
    PathEntry,
    load_spec,
    load_spec_file,
)
from .reporting import (
    CorpusSummary,
    LintReport,
    SummaryRow,
    aggregate,
    build_report,
    render,
)
from .rules import (
    ALL_RULES,
    RULE_ORDER,
    Category,
    RuleConfig,
    RuleId,
    Violation,
    run_rules,
)
from .uri import (
    Archetype,
    PathTemplate,
    Segment,
    SegmentKind,
    classify_archetypes,
    split_words,
    tokenize_path,
)

__version__ = "0.1.0"

__all__ = [
    "ALL_RULES",
    "ApiSpecification",
    "Archetype",
    "Category",
    "ConfigError",
    "CorpusSummary",
    "EmptyCorpus",
    "LexiconError",
    "LintReport",
    "NotAnApiSpec",
    "OperationRecord",
    "ParseError",
    "PathEntry",
    "PathTemplate",
    "RestLintError",
    "RULE_ORDER",
    "RuleConfig",
    "RuleId",
    "Segment",
    "SegmentKind",
    "SummaryRow",
    "UnsupportedFormat",
    "Violation",
    "WordLexicon",
    "aggregate",
    "build_report",
    "classify_archetypes",
    "crud_method_of",
    "default_lexicon",
    "is_plural",
    "is_verb",
    "load_lexicon",
    "load_spec",
    "load_spec_file",
    "parse_lexicon",
    "render",
    "run_rules",
    "split_words",
    "tokenize_path",
]
