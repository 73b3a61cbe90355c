"""Conversion between treebanks and instruction-tuning triples.

A record renders a sentence twice in 8 tab-separated columns (id, form,
lemma, UPOS, XPOS, FEATS, head, rel): the input block carries the literal
placeholders `head` and `rel`, the output block the gold values.  The
rendered training string is `instruction + "\\n" + input + output`, where
both blocks are newline-terminated rows; `output_offset` is the character
index where the output block starts, i.e. the loss-mask boundary.

`from_it_output` reads generated text back leniently: any line whose first
whitespace- or tab-separated field is a positive integer counts as a row,
and unparsable head/deprel cells are recorded as absent rather than raised.
A number too long to convert reads as one past every sentence.
"""

from __future__ import annotations

import io
import re
from typing import Iterable, Iterator, NamedTuple, Sequence, TextIO

from .conllu import Sentence, Token

DEFAULT_INSTRUCTION = "아래의 문장을 의존구조문법에 맞게 분석해줘"

_INT_RE = re.compile(r"[0-9]+\Z")
# A cell with more significant digits reads as _TOO_LARGE, which is past every
# sentence: such an id is a stray row and such a head matches no token.
_MAX_DIGITS = 100
_TOO_LARGE = 10**_MAX_DIGITS


class ITRecord(NamedTuple):
    instruction: str
    input: str
    output: str

    @property
    def output_offset(self) -> int:
        return len(self.instruction) + 1 + len(self.input)

    @property
    def rendered(self) -> str:
        return self.instruction + "\n" + self.input + self.output


class ParsedRow(NamedTuple):
    id: int
    head: int | None
    deprel: str | None


def _row_columns(token: Token) -> list[str]:
    return [
        str(token.id),
        token.form,
        token.lemma or "_",
        token.upos or "_",
        token.xpos or "_",
        token.feats.to_conllu(),
    ]


def to_it_record(sentence: Sentence, instruction: str = DEFAULT_INSTRUCTION) -> ITRecord:
    if not sentence.tokens:
        raise ValueError("cannot convert an empty sentence")
    input_rows = []
    output_rows = []
    for token in sentence.tokens:
        columns = _row_columns(token)
        input_rows.append("\t".join(columns + ["head", "rel"]))
        head = "_" if token.head is None else str(token.head)
        output_rows.append("\t".join(columns + [head, token.deprel or "_"]))
    return ITRecord(
        instruction=instruction,
        input="".join(row + "\n" for row in input_rows),
        output="".join(row + "\n" for row in output_rows),
    )


def _long_int(cell: str) -> int:
    """The value of a cell of more than _MAX_DIGITS digits, leading zeros ignored."""
    digits = cell.lstrip("0")
    return int(digits or "0") if len(digits) <= _MAX_DIGITS else _TOO_LARGE


def from_it_output(text: str) -> list[ParsedRow]:
    """Best-effort row extraction from (possibly degraded) generated text."""
    rows: list[ParsedRow] = []
    for line in text.splitlines():
        if not line.strip():
            continue
        fields = line.split("\t") if "\t" in line else line.split()
        first = fields[0].strip()
        if not _INT_RE.match(first):
            continue
        row_id = int(first) if len(first) <= _MAX_DIGITS else _long_int(first)
        if row_id < 1:
            continue
        head: int | None = None
        if len(fields) > 6 and _INT_RE.match(cell := fields[6].strip()):
            head = int(cell) if len(cell) <= _MAX_DIGITS else _long_int(cell)
        deprel: str | None = None
        if len(fields) > 7:
            value = fields[7].strip()
            if value and value != "_":
                deprel = value
        rows.append(ParsedRow(id=row_id, head=head, deprel=deprel))
    return rows


def emit_jsonl(records: Iterable[ITRecord], sink: TextIO) -> int:
    """One JSON object per record; returns the number of lines written."""
    import json  # here, not at module level: `eval` reads records and writes no JSON

    count = 0
    for record in records:
        payload = {
            "instruction": record.instruction,
            "input": record.input,
            "output": record.output,
            "output_offset": record.output_offset,
        }
        sink.write(json.dumps(payload, ensure_ascii=False) + "\n")
        count += 1
    return count


def iter_prediction_blocks(source: str | TextIO) -> Iterator[list[ParsedRow]]:
    """Stream the rows of each prediction block, one block per sentence.

    A block is a run of lines that are not blank, and a line of whitespace
    alone is blank, as splitting the text on `\\n\\s*\\n` would have it.  A
    `str` breaks into lines at `\\n` only; a stream breaks as it was opened.
    Memory holds one block.
    """
    stream = io.StringIO(source) if isinstance(source, str) else source
    block: list[str] = []
    for line in stream:
        if not line.isspace():
            block.append(line)
        elif block:
            yield from_it_output("".join(block))
            block.clear()
    if block:
        yield from_it_output("".join(block))


def read_prediction_blocks(source: str | TextIO) -> list[list[ParsedRow]]:
    """Every block of `iter_prediction_blocks` in one list, for a caller that
    wants them all at once; the CLI streams them instead."""
    return list(iter_prediction_blocks(source))
