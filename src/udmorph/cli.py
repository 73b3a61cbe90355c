"""Command-line pipeline: validate, enrich, correct, stats, convert-it, eval.

Data flows on stdout, diagnostics and `WARNING: <message>` lines
(`conllu.warn`) on stderr, so stages compose in shell pipelines
(`udmorph enrich x.conllu | udmorph correct - | ...`).  Every input
argument reads stdin for `-`, at most one per command.  Sentences stream one
at a time in every command, `eval`'s gold and predictions in step; outputs are
byte-deterministic for identical inputs.  Exit codes:
0 success, 1 validation failure, 2 I/O or format error.

Each `_cmd_*` imports only the stages it runs and calls them through their
module (`rules.enrich_sentence`), so a swapped module attribute sees every call.
Start-up is paid on every command of a pipe, so no stage imports `logging`,
`dataclasses`, `importlib.resources` or `decimal`, and only `convert-it`
loads `json`.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import AbstractContextManager, nullcontext
from typing import Iterator, TextIO

from . import conllu

RULES_ENV_VAR = "UDMORPH_RULES"

_ENCODING = {"r": "utf-8-sig", "w": "utf-8"}

# Input arguments that name one file each; `inputs` names any number.
_SINGLE_INPUTS = ("input", "gold", "predictions", "rules", "aux")


def _open(path: str, mode: str = "r") -> TextIO:
    """`path` as UTF-8 text whatever the locale; reading drops a leading BOM."""
    return open(path, mode, encoding=_ENCODING[mode])


def _open_or_stdio(path: str, mode: str = "r") -> AbstractContextManager[TextIO]:
    """`_open`, but '-' is stdin or stdout, set to the same encoding in place
    and never closed; stdin also translates line endings as `_open` does."""
    if path != "-":
        return _open(path, mode)
    if mode == "r":
        sys.stdin.reconfigure(encoding=_ENCODING[mode], newline=None)
        return nullcontext(sys.stdin)
    sys.stdout.reconfigure(encoding=_ENCODING[mode])
    return nullcontext(sys.stdout)


def _load_pack(path: str | None) -> rules.RulePack:
    from . import rules

    if path is None:
        return rules.load_default_pack()
    with _open_or_stdio(path) as stream:
        return rules.load_rule_pack(stream)


def _require_inputs(args: argparse.Namespace) -> None:
    """Fail fast, before any output is produced, on an unreadable input or on
    stdin ('-') named for more than one input."""
    given = [("inputs", path) for path in getattr(args, "inputs", [])]
    given += [(name, getattr(args, name, None)) for name in _SINGLE_INPUTS]
    stdin = [name for name, path in given if path == "-"]
    if len(stdin) > 1:
        raise conllu.UdmorphError(f"more than one input reads stdin ('-'): {', '.join(stdin)}")
    for _, path in given:
        if path not in (None, "-"):
            with _open(path):
                pass


def _stream_sentences(args: argparse.Namespace) -> Iterator[conllu.Sentence]:
    for path in args.inputs:
        with _open_or_stdio(path) as stream:
            try:
                yield from conllu.iter_sentences(stream, lenient=args.lenient)
            except conllu.ConlluError as error:
                raise conllu.ConlluError(f"{path}: {error}") from None


def _add_io_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "inputs", nargs="*", default=["-"], help="CoNLL-U file(s), '-' for stdin"
    )
    parser.add_argument("-o", "--output", default="-", help="output file, '-' for stdout")
    parser.add_argument("--lenient", action="store_true", help="map unknown XPOS tags to NA")


def _add_rules_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--rules",
        default=os.environ.get(RULES_ENV_VAR),
        help=f"rule-pack file (default: ${RULES_ENV_VAR} or the packaged Korean pack)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="udmorph",
        description="Morphosyntactic enrichment, correction and evaluation for CoNLL-U treebanks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check structural and annotation invariants")
    _add_io_arguments(p)

    p = sub.add_parser("enrich", help="assign morphosyntactic features from the rule pack")
    _add_io_arguments(p)
    _add_rules_argument(p)

    p = sub.add_parser("correct", help="apply systematic POS/XPOS corrections")
    _add_io_arguments(p)
    _add_rules_argument(p)
    p.add_argument("--aux", default=None, help="NER/tagger sidecar file")
    p.add_argument("--records", default=None, help="write the correction log here")

    p = sub.add_parser("stats", help="summarize a correction log as conversion tables")
    p.add_argument("input", nargs="?", default="-", help="correction log, '-' for stdin")
    p.add_argument("-o", "--output", default="-")
    p.add_argument(
        "--total-tokens",
        type=int,
        default=None,
        help="ratio denominator (default: the log's total_tokens header)",
    )

    p = sub.add_parser("convert-it", help="convert a treebank to instruction-tuning JSONL")
    _add_io_arguments(p)
    p.add_argument(
        "--instruction",
        default=None,
        help="instruction text placed before the input block (default: the packaged one)",
    )

    p = sub.add_parser("eval", help="score predictions against gold (UAS/LAS)")
    p.add_argument("gold", help="gold CoNLL-U file, '-' for stdin")
    p.add_argument("predictions", help="predicted blocks, blank-line separated, '-' for stdin")
    p.add_argument("-o", "--output", default="-")
    p.add_argument("--lenient", action="store_true")
    p.add_argument(
        "--exclude-punct", action="store_true", help="skip PUNCT gold tokens when scoring"
    )
    return parser


def _cmd_validate(args: argparse.Namespace) -> int:
    failures = 0
    for index, sentence in enumerate(_stream_sentences(args), start=1):
        for diagnostic in conllu.validate([sentence], start=index):
            print(diagnostic, file=sys.stderr)
            failures += 1
    return 1 if failures else 0


def _cmd_enrich(args: argparse.Namespace) -> int:
    from . import rules

    pack = _load_pack(args.rules)
    with _open_or_stdio(args.output, "w") as sink:
        for sentence in _stream_sentences(args):
            conllu.write_conllu([rules.enrich_sentence(sentence, pack)], sink)
    return 0


def _cmd_correct(args: argparse.Namespace) -> int:
    from . import corrections

    pack = _load_pack(args.rules)
    aux_entries: list[corrections.AuxAnnotation] = []
    if args.aux is not None:
        with _open_or_stdio(args.aux) as stream:
            aux_entries = corrections.read_aux_sidecar(stream)
    aux_by_sentence: dict[str, list[corrections.AuxAnnotation]] = {}
    for entry in aux_entries:
        aux_by_sentence.setdefault(entry.sent_id, []).append(entry)

    all_records: list[corrections.CorrectionRecord] = []
    total_tokens = 0
    matched: set[str] = set()
    with _open_or_stdio(args.output, "w") as sink:
        for sentence in _stream_sentences(args):
            total_tokens += len(sentence.tokens)
            entries = aux_by_sentence.get(sentence.sent_id or "", [])
            if entries:
                matched.add(sentence.sent_id)
            corrected, records = corrections.correct_sentence(sentence, entries, pack)
            all_records.extend(records)
            conllu.write_conllu([corrected], sink)
    unmatched = [entry for entry in aux_entries if entry.sent_id not in matched]
    if unmatched:
        first = unmatched[0].sent_id
        conllu.warn(f"{len(unmatched)} aux entries match no sentence (first sent_id {first!r})")
    if args.records is not None:
        with _open(args.records, "w") as sink:
            corrections.write_records(all_records, total_tokens, sink)
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from . import corrections

    with _open_or_stdio(args.input) as stream:
        records, total = corrections.read_records(stream)
    if args.total_tokens is not None:
        total = args.total_tokens
    if total is None:
        raise corrections.CorrectionError("no total_tokens header in the log; pass --total-tokens")
    stats = corrections.aggregate_stats(records, total)
    with _open_or_stdio(args.output, "w") as sink:
        sink.write(corrections.format_stats(stats))
    return 0


def _cmd_convert_it(args: argparse.Namespace) -> int:
    from . import itdata

    instruction = itdata.DEFAULT_INSTRUCTION if args.instruction is None else args.instruction
    with _open_or_stdio(args.output, "w") as sink:
        for sentence in _stream_sentences(args):
            itdata.emit_jsonl([itdata.to_it_record(sentence, instruction)], sink)
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    from . import evaluate, itdata

    with _open_or_stdio(args.gold) as gold, _open_or_stdio(args.predictions) as predicted:
        report = evaluate.score(
            conllu.iter_sentences(gold, lenient=args.lenient),
            itdata.iter_prediction_blocks(predicted),
            exclude_punct=args.exclude_punct,
        )
    with _open_or_stdio(args.output, "w") as sink:
        sink.write(evaluate.format_report(report))
    return 0


_COMMANDS = {
    "validate": _cmd_validate,
    "enrich": _cmd_enrich,
    "correct": _cmd_correct,
    "stats": _cmd_stats,
    "convert-it": _cmd_convert_it,
    "eval": _cmd_eval,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _require_inputs(args)
        return _COMMANDS[args.command](args)
    except (conllu.UdmorphError, OSError, UnicodeDecodeError) as error:
        print(f"udmorph {args.command}: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
