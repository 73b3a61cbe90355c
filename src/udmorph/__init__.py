"""Morphosyntactic enrichment, POS correction, instruction-tuning conversion
and dependency-parsing evaluation for morpheme-segmented CoNLL-U treebanks."""

from .conllu import (
    Diagnostic,
    FeatureBag,
    Morpheme,
    Sentence,
    Token,
    parse_conllu,
    serialize_conllu,
    validate,
)
from .corrections import (
    AuxAnnotation,
    ConversionStats,
    CorrectionRecord,
    aggregate_stats,
    correct_sentence,
)
from .evaluate import DeltaReport, EvalReport, compare, score
from .itdata import ITRecord, ParsedRow, emit_jsonl, from_it_output, to_it_record
from .rules import (
    Rule,
    RulePack,
    assign_features,
    enrich_sentence,
    load_default_pack,
    load_rule_pack,
)

__version__ = "0.1.0"

__all__ = [
    "AuxAnnotation",
    "ConversionStats",
    "CorrectionRecord",
    "DeltaReport",
    "Diagnostic",
    "EvalReport",
    "FeatureBag",
    "ITRecord",
    "Morpheme",
    "ParsedRow",
    "Rule",
    "RulePack",
    "Sentence",
    "Token",
    "aggregate_stats",
    "assign_features",
    "compare",
    "correct_sentence",
    "emit_jsonl",
    "enrich_sentence",
    "from_it_output",
    "load_default_pack",
    "load_rule_pack",
    "parse_conllu",
    "score",
    "serialize_conllu",
    "to_it_record",
    "validate",
]
