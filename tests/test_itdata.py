import io
import json

import pytest
from hypothesis import given, settings

from conftest import FIG1_CONLLU, PREDICTION_TEXT, make_sentence
from udmorph.conllu import Sentence, parse_conllu
from udmorph.itdata import (
    DEFAULT_INSTRUCTION,
    ITRecord,
    ParsedRow,
    emit_jsonl,
    from_it_output,
    read_prediction_blocks,
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


def test_prediction_blocks_split_on_blank_lines():
    text = EXPECTED_OUTPUT + "\n" + "1\tx\tx\tX\tNA\t_\t0\troot\n"
    blocks = read_prediction_blocks(text)
    assert len(blocks) == 2
    assert len(blocks[0]) == 6
    assert blocks[1] == [ParsedRow(1, 0, "root")]


@settings(max_examples=300, deadline=None)
@given(text=PREDICTION_TEXT)
def test_prediction_readers_never_raise_and_keep_positive_ids(text):
    rows = from_it_output(text)
    blocks = read_prediction_blocks(text)
    assert all(row.id >= 1 for row in rows)
    assert all(row.id >= 1 for block in blocks for row in block)
