"""Correctness checks on the files the CLI writes.

Each check returns a list of problems; an empty list means the output is
correct.  The CoNLL-U checks use udmorph's own parser and validator (the
program promises that everything it writes reads back and validates);
the replay, JSONL and eval checks are written from the documented formats
and do not call into udmorph.
"""

from __future__ import annotations

import json

from .corpus import EvalOracle

_COLUMNS = {"LEMMA": 2, "UPOS": 3, "XPOS": 4}


def conllu_output(text: str, sentences: int, tokens: int) -> list[str]:
    """The file re-parses, passes `validate`, and keeps every sentence and token."""
    from udmorph import parse_conllu, validate

    try:
        parsed = parse_conllu(text)
    except ValueError as error:
        return [f"does not re-parse: {error}"]
    problems = [str(d) for d in validate(parsed)[:5]]
    got_tokens = sum(len(s.tokens) for s in parsed)
    if (len(parsed), got_tokens) != (sentences, tokens):
        problems.append(
            f"{len(parsed)} sentences / {got_tokens} tokens, expected {sentences} / {tokens}"
        )
    return problems


def _token_rows(text: str) -> tuple[list[str], dict[tuple[str, str], int]]:
    """Lines of a CoNLL-U text and the line index of each (sent_id, word id)."""
    lines = text.split("\n")
    index: dict[tuple[str, str], int] = {}
    sent_id = ""
    for i, line in enumerate(lines):
        if line.startswith("# sent_id ="):
            sent_id = line[len("# sent_id =") :].strip()
        elif line and not line.startswith("#"):
            word_id = line.split("\t", 1)[0]
            if word_id.isdigit():
                index[(sent_id, word_id)] = i
    return lines, index


def replay(before: str, after: str, log: str, tokens: int) -> list[str]:
    """Applying the correction log to `before` reproduces `after` byte for byte."""
    lines, index = _token_rows(before)
    header = f"# total_tokens\t{tokens}"
    problems = [] if log.startswith(header + "\n") else [f"log does not start with {header!r}"]
    for number, record in enumerate(log.splitlines(), start=1):
        if not record or record.startswith("#"):
            continue
        fields = record.split("\t")
        if len(fields) != 6 or fields[2] not in _COLUMNS:
            return problems + [f"log line {number}: malformed record {record!r}"]
        sent_id, word_id, field, original, corrected, _ = fields
        position = index.get((sent_id if sent_id != "_" else "", word_id))
        if position is None:
            return problems + [f"log line {number}: no token {sent_id}:{word_id}"]
        columns = lines[position].split("\t")
        column = _COLUMNS[field]
        if columns[column] != original:
            return problems + [
                f"log line {number}: {field} is {columns[column]!r}, log says {original!r}"
            ]
        columns[column] = corrected
        lines[position] = "\t".join(columns)
    if "\n".join(lines) != after:
        problems.append("replaying the log does not reproduce the corrected file")
    return problems


def jsonl_records(text: str, source: str) -> list[str]:
    """One record per sentence of `source`; offsets split each rendered string
    exactly at the output block, whose rows are the source's first 8 columns."""
    sentences = [block for block in source.split("\n\n") if block.strip()]
    lines = text.splitlines()
    if len(lines) != len(sentences):
        return [f"{len(lines)} JSONL lines for {len(sentences)} sentences"]
    for number, (line, block) in enumerate(zip(lines, sentences), start=1):
        try:
            record = json.loads(line)
            rendered = record["instruction"] + "\n" + record["input"] + record["output"]
            offset = record["output_offset"]
        except (ValueError, KeyError, TypeError) as error:
            return [f"JSONL line {number}: {error!r}"]
        if rendered[offset:] != record["output"]:
            return [f"JSONL line {number}: rendered[output_offset:] != output"]
        expected = [
            "\t".join(row.split("\t")[:8])
            for row in block.split("\n")
            if row and not row.startswith("#")
        ]
        if record["output"].splitlines() != expected:
            return [f"JSONL line {number}: output rows differ from the source sentence"]
        placeholders = [row.split("\t")[6:] for row in record["input"].splitlines()]
        if len(placeholders) != len(expected) or any(p != ["head", "rel"] for p in placeholders):
            return [f"JSONL line {number}: input rows lack the head/rel placeholders"]
    return []


def eval_report(text: str, oracle: EvalOracle) -> list[str]:
    """The machine-readable part of `eval`'s report equals the oracle."""
    values = {}
    for line in text.splitlines():
        key, sep, value = line.partition("\t")
        if sep:
            values[key] = value
    expected = {
        "total": str(oracle.total),
        "head_correct": str(oracle.head_correct),
        "both_correct": str(oracle.both_correct),
        "uas": oracle.uas,
        "las": oracle.las,
        "unmatched": str(oracle.unmatched),
        "missing": str(oracle.missing),
    }
    return [
        f"eval {key} = {values.get(key)!r}, oracle says {value!r}"
        for key, value in expected.items()
        if values.get(key) != value
    ]
