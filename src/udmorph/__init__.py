"""Morphosyntactic enrichment, POS correction, instruction-tuning conversion
and dependency-parsing evaluation for morpheme-segmented CoNLL-U treebanks.

Importing the package loads no module: each public name imports its module
on first use (PEP 562), so a process loads only the stages it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "conllu": "Diagnostic FeatureBag Morpheme Sentence Token parse_conllu serialize_conllu validate",
    "corrections": "AuxAnnotation ConversionStats CorrectionRecord aggregate_stats correct_sentence",
    "evaluate": "DeltaReport EvalReport compare score",
    "itdata": "ITRecord ParsedRow emit_jsonl from_it_output to_it_record",
    "rules": "Rule RulePack enrich_sentence load_default_pack load_rule_pack",
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
