"""Conversion between treebanks and instruction-tuning triples.

A record renders a sentence twice in 8 tab-separated columns (id, form,
lemma, UPOS, XPOS, FEATS, head, rel), the first eight cells of the row
`conllu.write_conllu` writes, an empty value written `_`: the input block
carries the literal placeholders `head` and `rel`, the output block the
gold values.  Both blocks share each token's first six cells, rendered
once.  The rendered training string is `instruction + "\\n" + input +
output`, where both blocks are newline-terminated rows; `output_offset` is
the character index where the output block starts, i.e. the loss-mask
boundary.  `emit_jsonl` writes each record as the line
`json.dumps(..., ensure_ascii=False)` would, with the same string quoter
and without building a dict.

`from_it_output` reads generated text back leniently: any line whose first
whitespace- or tab-separated field is a positive integer counts as a row,
and unparsable head/deprel cells are recorded as absent rather than raised.
An id or head cell that is exactly the digits of a number below
`_SMALL_INT_BOUND` is looked up in a table; any other cell is stripped and
checked for digits.  A number too long to convert reads as one past every
sentence.
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator, NamedTuple, Sequence, TextIO

from .conllu import Sentence, _new_tuple, _text_stream

DEFAULT_INSTRUCTION = "아래의 문장을 의존구조문법에 맞게 분석해줘"

_INT_RE = re.compile(r"[0-9]+\Z")
# A cell with more significant digits reads as _TOO_LARGE, which is past every
# sentence: such an id is a stray row and such a head matches no token.
_MAX_DIGITS = 100
_TOO_LARGE = 10**_MAX_DIGITS
# The value of each cell that is exactly the canonical digits of a number
# below this bound; any other cell takes the `_INT_RE` path.
_SMALL_INT_BOUND = 256
_SMALL_INTS = {str(n): n for n in range(_SMALL_INT_BOUND)}


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


def to_it_record(sentence: Sentence, instruction: str = DEFAULT_INSTRUCTION) -> ITRecord:
    if not sentence.tokens:
        raise ValueError("cannot convert an empty sentence")
    input_rows = []
    output_rows = []
    for token_id, form, lemma, xpos, upos, feats, head, deprel, _, _ in sentence.tokens:
        # the six cells both blocks share, rendered once
        prefix = f"{token_id}\t{form}\t{lemma or '_'}\t{upos or '_'}\t{xpos or '_'}\t{feats._text}\t"
        input_rows.append(prefix + "head\trel\n")
        output_rows.append(f"{prefix}{'_' if head is None else head}\t{deprel or '_'}\n")
    return _new_tuple(ITRecord, (instruction, "".join(input_rows), "".join(output_rows)))


def _long_int(cell: str) -> int:
    """The value of a cell of digits, leading zeros ignored; past _MAX_DIGITS
    significant digits, _TOO_LARGE."""
    digits = cell.lstrip("0")
    return int(digits or "0") if len(digits) <= _MAX_DIGITS else _TOO_LARGE


def from_it_output(text: str) -> list[ParsedRow]:
    """Best-effort row extraction from (possibly degraded) generated text."""
    rows: list[ParsedRow] = []
    for line in text.splitlines():
        if not line or line.isspace():
            continue
        fields = line.split("\t") if "\t" in line else line.split()
        row_id = _SMALL_INTS.get(fields[0])
        if row_id is None:
            first = fields[0].strip()
            if not _INT_RE.match(first):
                continue
            row_id = _long_int(first)
        if row_id < 1:
            continue
        head: int | None = None
        if len(fields) > 6:
            head = _SMALL_INTS.get(fields[6])
            if head is None and _INT_RE.match(cell := fields[6].strip()):
                head = _long_int(cell)
        deprel: str | None = None
        if len(fields) > 7:
            value = fields[7].strip()
            if value and value != "_":
                deprel = value
        rows.append(_new_tuple(ParsedRow, (row_id, head, deprel)))
    return rows


def emit_jsonl(records: Iterable[ITRecord], sink: TextIO) -> int:
    """One JSON object per record, as `json.dumps(..., ensure_ascii=False)`
    writes it; returns the number of lines written."""
    # here, not at module level: `eval` reads records and writes no JSON.
    # The quoter `json.dumps` applies to each `str` value.
    from json.encoder import encode_basestring as quote

    count = 0
    for record in records:
        sink.write(
            f'{{"instruction": {quote(record.instruction)}, "input": {quote(record.input)}, '
            f'"output": {quote(record.output)}, "output_offset": {record.output_offset}}}\n'
        )
        count += 1
    return count


def iter_prediction_blocks(source: str | TextIO) -> Iterator[list[ParsedRow]]:
    """Stream the rows of each prediction block, one block per sentence.

    A block is a run of lines that are not blank, and a line of whitespace
    alone is blank, as splitting the text on `\\n\\s*\\n` would have it.  A
    `str` is read with universal newlines, as the CLI reads a file.  Memory
    holds one block.
    """
    stream = _text_stream(source)
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
