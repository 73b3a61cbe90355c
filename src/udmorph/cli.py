"""Command-line pipeline: validate, enrich, correct, stats, convert-it, eval.

Data flows on stdout, diagnostics and `WARNING: <message>` lines
(`conllu.warn`) on stderr, so stages compose in shell pipelines
(`udmorph enrich x.conllu | udmorph correct - | ...`).  Every input
argument reads stdin for `-`, at most one per command.  Sentences stream one
at a time in every command, `eval`'s gold and predictions in step.  Besides
the bounded memos, each command holds one sentence (`eval` one gold sentence
and one prediction block), `enrich` the rule pack, and `stats` the log it
reads.  `correct` holds its aux sidecar, one object per distinct cell, and
nothing per correction record: `--records` spools each sentence's log rows
to an unnamed file and copies them after the `# total_tokens` header, which
comes first but is known only at the end.  So no command's memory grows
with the corpus but `correct`'s, by its sidecar.
Outputs are byte-deterministic for identical inputs.  A named output
(`-o FILE`, `--records FILE`) is written all or nothing (`_replacing`);
stdout cannot be.  Exit codes: 0 success, 1 validation failure, 2 I/O or
format error.

Each `_cmd_*` imports only the stages it runs and calls them through their
module (`rules.enrich_sentence`), so a swapped module attribute sees every call.
Start-up is paid on every command of a pipe, so no stage imports `logging`,
`dataclasses`, `importlib.resources` or `decimal`, only `convert-it` loads
`json`, and only `validate` loads the checks of `conllu.validate`
(`validation`).  Each command's arguments are declared once, in `_COMMANDS`.
`_read_argv` reads a command line that spells them exactly as declared;
argparse, with `gettext` and `locale`, loads only for any other command
line: help, errors and other spellings (`--output=FILE`, `--rec`, `--`).
"""

from __future__ import annotations

import os
import sys
from contextlib import AbstractContextManager, contextmanager, nullcontext
from types import SimpleNamespace
from typing import Iterator, TextIO

from . import conllu

_ENCODING = {"r": "utf-8-sig", "w": "utf-8"}

# Characters `correct` copies from its spool to the correction log per read.
# The copy comes last, when the process is at its largest, so it reads
# little at a time: 8k characters take at most 32 KB as a string.
_SPOOL_CHUNK = 1 << 13

# Input arguments that name one file each; `inputs` names any number.
_SINGLE_INPUTS = ("input", "gold", "predictions", "rules", "aux")


def _open(path: str, mode: str = "r") -> TextIO:
    """`path` as UTF-8 text whatever the locale; reading drops a leading BOM."""
    return open(path, mode, encoding=_ENCODING[mode])


def _replaced_target(path: str) -> str | None:
    """The real path `_replacing(path)` renames its new file onto; None when
    `path` names something other than a regular file (`/dev/null`, a pipe),
    which is written in place."""
    target = os.path.realpath(path)
    return None if os.path.exists(target) and not os.path.isfile(target) else target


def _new_file(head: str, name: str, suffix: str) -> tuple[int, str]:
    """A new file `head/.NAME.PID.N.SUFFIX`, open to read and write, with the
    first N no file holds."""
    attempt = 0
    while True:
        path = os.path.join(head, f".{name}.{os.getpid()}.{attempt}.{suffix}")
        try:
            return os.open(path, os.O_RDWR | os.O_CREAT | os.O_EXCL, 0o666), path
        except FileExistsError:
            attempt += 1


@contextmanager
def _replacing(path: str) -> Iterator[TextIO]:
    """`path` written all or nothing: the block writes a new file beside it,
    `.NAME.PID.N.tmp` with the first N no file holds (a killed run leaves
    its own behind), which replaces `path` only when the block succeeds and
    is removed on any error, so an output that names an input is replaced
    only after the input was read to its end.  The new file gets the mode
    of any new file (0o666 less the umask)."""
    target = _replaced_target(path)
    if target is None:
        with _open(path, "w") as sink:
            yield sink
        return
    head, name = os.path.split(target)
    try:
        fd, temporary = _new_file(head, name, "tmp")
    except OSError as error:  # named by the target, which the user gave
        raise OSError(error.errno, error.strerror, path) from None
    try:
        with open(fd, "w", encoding=_ENCODING["w"]) as sink:
            yield sink
        os.replace(temporary, target)
    except BaseException:
        os.unlink(temporary)
        raise


@contextmanager
def _spool(path: str) -> Iterator[TextIO]:
    """An unnamed file to write and read back: made beside the file
    `_replacing(path)` writes, or in the system's temporary directory when
    `path` is not a regular file, and unlinked as soon as it is open, so no
    exit path leaves it behind."""
    target = _replaced_target(path)
    if target is None:
        import tempfile

        head, name = tempfile.gettempdir(), "udmorph"
    else:
        head, name = os.path.split(target)
    fd, spool_path = _new_file(head, name, "spool")
    with open(fd, "w+", encoding=_ENCODING["w"], newline="") as spool:
        os.unlink(spool_path)
        yield spool


def _open_or_stdio(path: str, mode: str = "r") -> AbstractContextManager[TextIO]:
    """`_open` to read and `_replacing` to write, but '-' is stdin or stdout,
    set to the same encoding in place and never closed (so a failed command
    leaves what it already wrote on stdout); stdin also translates line
    endings as `_open` does."""
    if path != "-":
        return _open(path) if mode == "r" else _replacing(path)
    if mode == "r":
        sys.stdin.reconfigure(encoding=_ENCODING[mode], newline=None)
        return nullcontext(sys.stdin)
    sys.stdout.reconfigure(encoding=_ENCODING[mode])
    return nullcontext(sys.stdout)


def _require_inputs(args: SimpleNamespace) -> None:
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


def _stream_sentences(args: SimpleNamespace) -> Iterator[conllu.Sentence]:
    for path in args.inputs:
        with _open_or_stdio(path) as stream:
            try:
                yield from conllu.iter_sentences(stream, lenient=args.lenient)
            except conllu.ConlluError as error:
                raise conllu.ConlluError(f"{path}: {error}") from None


def _cmd_validate(args: SimpleNamespace) -> int:
    failures = 0
    for index, sentence in enumerate(_stream_sentences(args), start=1):
        for diagnostic in conllu.validate([sentence], start=index):
            print(diagnostic, file=sys.stderr)
            failures += 1
    return 1 if failures else 0


def _cmd_enrich(args: SimpleNamespace) -> int:
    from . import rules

    if args.rules is None:
        pack = rules.load_default_pack()
    else:
        with _open_or_stdio(args.rules) as stream:
            pack = rules.load_rule_pack(stream)
    with _open_or_stdio(args.output, "w") as sink:
        for sentence in _stream_sentences(args):
            conllu.write_conllu([rules.enrich_sentence(sentence, pack)], sink)
    return 0


def _cmd_correct(args: SimpleNamespace) -> int:
    from . import corrections

    if args.records == "-":
        raise conllu.UdmorphError("--records must name a file, not '-'")
    if args.records is not None and args.output != "-":
        log_target = _replaced_target(args.records)
        if log_target is not None and log_target == _replaced_target(args.output):
            raise conllu.UdmorphError(f"-o and --records name the same file: {args.output}")
    aux_by_sentence: dict[str, list[corrections.AuxAnnotation]] = {}
    if args.aux is not None:
        with _open_or_stdio(args.aux) as stream:
            for entry in corrections.read_aux_sidecar(stream):
                aux_by_sentence.setdefault(entry.sent_id, []).append(entry)

    # the log is opened first, so an unwritable one fails before any output;
    # each sentence's rows go to the spool, as the `log_header` that comes
    # first is known only at the end.  A second sentence with the sent_id of
    # one that took aux entries is refused: it would take them too, and its
    # log rows would not replay.
    log_context = nullcontext() if args.records is None else _replacing(args.records)
    spool_context = nullcontext() if args.records is None else _spool(args.records)
    total_tokens = 0
    matched: set[str] = set()
    with log_context as log, spool_context as spool, _open_or_stdio(args.output, "w") as sink:
        for sentence in _stream_sentences(args):
            total_tokens += len(sentence.tokens)
            entries = aux_by_sentence.get(sentence.sent_id or "", [])
            if entries:  # the sidecar's sent_id, so no string is held per sentence
                sid = entries[0].sent_id
                if sid in matched:
                    raise corrections.CorrectionError(
                        f"sent_id {sid!r} names more than one sentence, so each would take"
                        " its aux entries; give every sentence a unique sent_id"
                    )
                matched.add(sid)
            corrected, records = corrections.correct_sentence(sentence, entries)
            if spool is not None:
                spool.write(corrections.format_log_rows(records))
            conllu.write_conllu([corrected], sink)
        unmatched = [sid for sid in aux_by_sentence if sid not in matched]
        if unmatched:
            count = sum(len(aux_by_sentence[sid]) for sid in unmatched)
            conllu.warn(f"{count} aux entries match no sentence (first sent_id {unmatched[0]!r})")
        if log is not None:
            log.write(corrections.log_header(total_tokens))
            spool.seek(0)
            while chunk := spool.read(_SPOOL_CHUNK):
                log.write(chunk)
    return 0


def _cmd_stats(args: SimpleNamespace) -> int:
    from . import corrections

    with _open_or_stdio(args.input) as stream:
        stats = corrections.log_stats(stream, args.total_tokens)
    with _open_or_stdio(args.output, "w") as sink:
        sink.write(corrections.format_stats(stats))
    return 0


def _cmd_convert_it(args: SimpleNamespace) -> int:
    from . import itdata

    instruction = itdata.DEFAULT_INSTRUCTION if args.instruction is None else args.instruction
    with _open_or_stdio(args.output, "w") as sink:
        for sentence in _stream_sentences(args):
            itdata.emit_jsonl([itdata.to_it_record(sentence, instruction)], sink)
    return 0


def _cmd_eval(args: SimpleNamespace) -> int:
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


# Each command's handler, help line and arguments, declared once: both the
# strict reader `_read_argv` and the argparse parser `_build_parser` read
# them.  An argument is its names and the keywords `add_argument` takes; the
# reader knows `nargs` ("*", "?" or, when absent, one required value),
# `default`, `action="store_true"` and `type=int`.
_INPUTS = (("inputs",), {"nargs": "*", "default": ["-"], "help": "CoNLL-U file(s), '-' for stdin"})
_LENIENT = (("--lenient",), {"action": "store_true", "help": "map unknown XPOS tags to NA"})
_OUTPUT = (("-o", "--output"), {"default": "-", "help": "output file, '-' for stdout"})

_COMMANDS = {
    "validate": (
        _cmd_validate,
        "check structural and annotation invariants",
        (_INPUTS, _LENIENT),
    ),
    "enrich": (
        _cmd_enrich,
        "assign morphosyntactic features from the rule pack",
        (
            _INPUTS,
            _LENIENT,
            _OUTPUT,
            (("--rules",), {"help": "rule-pack file (default: the packaged Korean pack)"}),
        ),
    ),
    "correct": (
        _cmd_correct,
        "apply systematic POS/XPOS corrections",
        (
            _INPUTS,
            _LENIENT,
            _OUTPUT,
            (("--aux",), {"help": "NER/tagger sidecar file"}),
            (("--records",), {"help": "write the correction log here"}),
        ),
    ),
    "stats": (
        _cmd_stats,
        "summarize a correction log as conversion tables",
        (
            (("input",), {"nargs": "?", "default": "-", "help": "correction log, '-' for stdin"}),
            (("-o", "--output"), {"default": "-"}),
            (
                ("--total-tokens",),
                {"type": int, "help": "ratio denominator (default: the log's total_tokens header)"},
            ),
        ),
    ),
    "convert-it": (
        _cmd_convert_it,
        "convert a treebank to instruction-tuning JSONL",
        (
            _INPUTS,
            _LENIENT,
            _OUTPUT,
            (
                ("--instruction",),
                {"help": "instruction text placed before the input block (default: the packaged one)"},
            ),
        ),
    ),
    "eval": (
        _cmd_eval,
        "score predictions against gold (UAS/LAS)",
        (
            (("gold",), {"help": "gold CoNLL-U file, '-' for stdin"}),
            (("predictions",), {"help": "predicted blocks, blank-line separated, '-' for stdin"}),
            (("-o", "--output"), {"default": "-"}),
            (("--lenient",), {"action": "store_true"}),
            (("--exclude-punct",), {"action": "store_true", "help": "skip PUNCT gold tokens when scoring"}),
        ),
    ),
}


def _is_value(arg: str) -> bool:
    return arg == "-" or not arg.startswith("-")


def _read_argv(argv: list[str]) -> SimpleNamespace | None:
    """The namespace argparse gives for `argv` when it names a command, spells
    each option exactly as `_COMMANDS` does (`--opt VALUE` or a flag) and
    gives the positionals in one run, each value '-' or not starting with
    '-'; None for anything else (help, errors, `--opt=VALUE`, abbreviations,
    `--`), which `_build_parser` parses."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    values: dict[str, object] = {"command": argv[0]}
    options, positionals = {}, []
    for names, settings in _COMMANDS[argv[0]][2]:
        if names[0].startswith("-"):
            dest, flag = names[-1][2:].replace("-", "_"), settings.get("action") == "store_true"
            values[dest] = False if flag else settings.get("default")
            options.update(dict.fromkeys(names, (dest, flag, settings.get("type", str))))
        else:
            positionals.append((names[0], settings))
    given: list[str] = []
    run_ended = False  # an option came after the positionals
    rest = iter(argv[1:])
    for arg in rest:
        if _is_value(arg):
            if run_ended:
                return None
            given.append(arg)
            continue
        if arg not in options:
            return None
        run_ended = bool(given)
        dest, flag, kind = options[arg]
        if flag:
            values[dest] = True
            continue
        value = next(rest, "--")  # "--", no value, when the line ends here
        if not _is_value(value):
            return None
        try:
            values[dest] = kind(value)
        except ValueError:
            return None
    for dest, settings in positionals:
        nargs = settings.get("nargs")
        if nargs == "*":
            values[dest], given = given or settings["default"], []
        elif given:
            values[dest] = given.pop(0)
        elif nargs == "?":
            values[dest] = settings["default"]
        else:
            return None
    return None if given else SimpleNamespace(**values)


def _build_parser():
    import argparse

    parser = argparse.ArgumentParser(
        prog="udmorph",
        description="Morphosyntactic enrichment, correction and evaluation for CoNLL-U treebanks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_line, arguments) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_line)
        for names, settings in arguments:
            p.add_argument(*names, **settings)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _read_argv(argv) or SimpleNamespace(**vars(_build_parser().parse_args(argv)))
    try:
        _require_inputs(args)
        return _COMMANDS[args.command][0](args)
    except (conllu.UdmorphError, OSError, UnicodeDecodeError) as error:
        print(f"udmorph {args.command}: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
