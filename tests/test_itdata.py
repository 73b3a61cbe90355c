import io
import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIG1_CONLLU, PREDICTION_TEXT, make_sentence
from udmorph.conllu import Sentence, parse_conllu
from udmorph.itdata import (
    DEFAULT_INSTRUCTION,
    ITRecord,
    ParsedRow,
    emit_jsonl,
    from_it_output,
    iter_prediction_blocks,
    to_it_record,
)

EXPECTED_INPUT = (
    "1\t학교\t학교\tNOUN\tNNG\t_\thead\trel\n"
    "2\t분위기나\t분위기+나\tNOUN\tNNG+JC\tCase=Disj\thead\trel\n"
    "3\t경관이\t경관+이\tNOUN\tNNG+JKS\tCase=Nom\thead\trel\n"
    "4\t굉장히\t굉장히\tADV\tMAG\t_\thead\trel\n"
    "5\t좋다\t좋+다\tADJ\tVA+EF\tMood=Ind\thead\trel\n"
    "6\t.\t.\tPUNCT\tSF\t_\thead\trel\n"
)

EXPECTED_OUTPUT = (
    "1\t학교\t학교\tNOUN\tNNG\t_\t5\tnsubj\n"
    "2\t분위기나\t분위기+나\tNOUN\tNNG+JC\tCase=Disj\t1\tflat\n"
    "3\t경관이\t경관+이\tNOUN\tNNG+JKS\tCase=Nom\t1\tconj\n"
    "4\t굉장히\t굉장히\tADV\tMAG\t_\t5\tadvmod\n"
    "5\t좋다\t좋+다\tADJ\tVA+EF\tMood=Ind\t0\troot\n"
    "6\t.\t.\tPUNCT\tSF\t_\t5\tpunct\n"
)


def _fig1():
    return parse_conllu(FIG1_CONLLU)[0]


def test_reference_record_blocks():
    record = to_it_record(_fig1())
    assert record.instruction == DEFAULT_INSTRUCTION
    assert record.input == EXPECTED_INPUT
    assert record.output == EXPECTED_OUTPUT
    assert record.input.splitlines()[4] == "5\t좋다\t좋+다\tADJ\tVA+EF\tMood=Ind\thead\trel"
    assert record.output.splitlines()[4] == "5\t좋다\t좋+다\tADJ\tVA+EF\tMood=Ind\t0\troot"


def test_empty_sentence_rejected():
    with pytest.raises(ValueError, match="empty sentence"):
        to_it_record(Sentence())


def test_offset_is_prefix_length():
    record = to_it_record(_fig1())
    assert record.output_offset == len(record.instruction) + 1 + len(record.input)
    rendered = record.rendered
    assert rendered[record.output_offset:] == record.output
    # nothing before the boundary carries gold head/deprel cells
    for line in rendered[: record.output_offset].splitlines()[1:]:
        assert line.endswith("\thead\trel")


def test_input_output_structural_parity():
    record = to_it_record(_fig1())
    strip = lambda block: ["\t".join(l.split("\t")[:6]) for l in block.splitlines()]
    assert strip(record.input) == strip(record.output)


def test_output_parses_back_to_gold_structure():
    sentence = _fig1()
    rows = from_it_output(to_it_record(sentence).output)
    assert [(r.id, r.head, r.deprel) for r in rows] == [
        (t.id, t.head, t.deprel) for t in sentence.tokens
    ]


def test_from_it_output_degraded_text():
    assert from_it_output("") == []
    assert from_it_output("the parse is:\nno tables here") == []
    # whitespace-separated fallback
    rows = from_it_output("5 좋다 좋+다 ADJ VA+EF Mood=Ind 0 root")
    assert rows == [ParsedRow(5, 0, "root")]
    # malformed head and placeholder deprel become absent
    rows = from_it_output("1\tx\tx\tX\tNA\t_\tzero\t_\n2\tx\tx\tX\tNA\t_\t1\n")
    assert rows == [ParsedRow(1, None, None), ParsedRow(2, 1, None)]


def test_emit_jsonl_round_trip():
    sentences = [
        _fig1(),
        make_sentence([("학교", "학교", "NNG", "NOUN"), ("좋다", "좋+다", "VA+EF", "ADJ")]),
    ]
    records = [to_it_record(s) for s in sentences]
    sink = io.StringIO()
    assert emit_jsonl(records, sink) == 2

    lines = sink.getvalue().splitlines()
    assert len(lines) == 2
    for line, record in zip(lines, records):
        payload = json.loads(line)
        assert list(payload) == ["instruction", "input", "output", "output_offset"]
        assert payload["instruction"] == record.instruction
        assert payload["input"] == record.input
        assert payload["output"] == record.output
        assert payload["output_offset"] == record.output_offset
        rebuilt = ITRecord(payload["instruction"], payload["input"], payload["output"])
        assert rebuilt == record


# Text the JSON quoter escapes or passes through: quotes, backslashes, the
# control characters, DEL, the line and paragraph separators, non-BMP
# characters and lone surrogates, among plain text.
_JSON_TEXT = st.text(
    st.one_of(
        st.sampled_from(['"', "\\", "\x7f", "\u2028", "\u2029", "가", "a", " "]),
        st.characters(max_codepoint=0x1F),
        st.characters(min_codepoint=0x10000),
        st.characters(categories=["Cs"]),
    ),
    max_size=8,
)


@settings(max_examples=300, deadline=None)
@given(records=st.lists(st.builds(ITRecord, _JSON_TEXT, _JSON_TEXT, _JSON_TEXT), max_size=3))
def test_each_jsonl_line_is_what_json_dumps_writes(records):
    sink = io.StringIO()
    assert emit_jsonl(iter(records), sink) == len(records)
    assert sink.getvalue() == "".join(
        json.dumps(
            {
                "instruction": record.instruction,
                "input": record.input,
                "output": record.output,
                "output_offset": record.output_offset,
            },
            ensure_ascii=False,
        )
        + "\n"
        for record in records
    )


def test_prediction_blocks_split_on_blank_lines():
    text = EXPECTED_OUTPUT + "\n" + "1\tx\tx\tX\tNA\t_\t0\troot\n"
    blocks = list(iter_prediction_blocks(text))
    assert len(blocks) == 2
    assert len(blocks[0]) == 6
    assert blocks[1] == [ParsedRow(1, 0, "root")]


# Digits and tabs make rows.  The other whitespace is what `\s`, `str.isspace`
# and `str.splitlines` treat differently from `\n`, or what breaks lines only
# in a stream read with universal newlines (`\r`).
_WHITESPACE = "\t \r\x0b\x0c\x1c\x85\u3000"
_PREDICTION_CHARS = "0123456789\n" + _WHITESPACE
_BLANK_LINES = st.lists(st.text(_WHITESPACE, max_size=3).map(lambda s: s + "\n"), max_size=3)
# Leading and trailing blank lines, and a last line with no newline.
PREDICTION_FILE = st.tuples(
    _BLANK_LINES.map("".join),
    st.text(_PREDICTION_CHARS, max_size=80),
    _BLANK_LINES.map("".join),
    st.text(_PREDICTION_CHARS.replace("\n", ""), max_size=6),
).map("".join)


def _split_on_blank_lines(text):
    """The reference: every block of the whole text at once, split by a regex."""
    return [from_it_output(block) for block in re.split(r"\n\s*\n", text) if block.strip()]


@settings(max_examples=500, deadline=None)
@given(text=PREDICTION_FILE)
def test_prediction_blocks_stream_as_the_blank_line_split_reads_them(text):
    # a `str` reads with universal newlines, as a stream the CLI opens does
    expected = _split_on_blank_lines(io.StringIO(text, newline=None).read())
    assert list(iter_prediction_blocks(text)) == expected
    assert list(iter_prediction_blocks(io.StringIO(text, newline=None))) == expected


def test_leading_zeros_are_ignored_however_many():
    row = "0" * 5000 + "1\tx\tx\tX\tNA\t_\t" + "0" * 5000 + "2\tdep"
    assert from_it_output(row) == [ParsedRow(1, 2, "dep")]


@settings(max_examples=300, deadline=None)
@given(text=PREDICTION_TEXT)
def test_prediction_readers_never_raise_and_keep_positive_ids(text):
    rows = from_it_output(text)
    blocks = list(iter_prediction_blocks(text))
    assert all(row.id >= 1 for row in rows)
    assert all(row.id >= 1 for block in blocks for row in block)
