import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIG1_CONLLU, PREDICTION_TEXT, make_sentence
from udmorph.conllu import parse_conllu
from udmorph.evaluate import EvalError, EvalReport, compare, format_report, score
from udmorph.itdata import ParsedRow, from_it_output


def _gold_rows(sentence):
    return [ParsedRow(t.id, t.head, t.deprel) for t in sentence.tokens]


def _fig1():
    return parse_conllu(FIG1_CONLLU)[0]


def test_identity_prediction_scores_100():
    gold = [_fig1()]
    report = score(gold, [_gold_rows(gold[0])])
    assert (report.uas, report.las) == (100.00, 100.00)
    assert report.unmatched_predicted_rows == 0
    assert report.missing_gold_rows == 0


def test_single_wrong_head():
    gold = [_fig1()]
    rows = _gold_rows(gold[0])
    rows[3] = replace(rows[3], head=1)  # gold head is 5
    report = score(gold, [rows])
    assert (report.uas, report.las) == (83.33, 83.33)


def test_wrong_deprel_only_hits_las():
    gold = [_fig1()]
    rows = _gold_rows(gold[0])
    rows[1] = replace(rows[1], deprel="conj")  # gold is flat
    report = score(gold, [rows])
    assert (report.uas, report.las) == (100.00, 83.33)


def test_fully_malformed_prediction():
    gold = [_fig1()]
    report = score(gold, [[]])
    assert (report.uas, report.las) == (0.00, 0.00)
    assert report.missing_gold_rows == 6


def test_surplus_and_repeated_rows_never_score():
    gold = [_fig1()]
    rows = _gold_rows(gold[0])
    rows.append(ParsedRow(99, 0, "root"))  # id outside the sentence
    rows.append(rows[0])  # verbatim repeat of an aligned row
    report = score(gold, [rows])
    assert (report.uas, report.las) == (100.00, 100.00)
    assert report.unmatched_predicted_rows == 2


def test_conflicting_duplicate_claims_do_not_align():
    gold = [_fig1()]
    rows = _gold_rows(gold[0])
    rows.append(replace(rows[0], head=3))  # second, contradictory claim on id 1
    report = score(gold, [rows])
    assert (report.uas, report.las) == (83.33, 83.33)
    assert report.unmatched_predicted_rows == 2
    assert report.missing_gold_rows == 1


def test_prediction_order_is_irrelevant():
    gold = [_fig1()]
    rows = _gold_rows(gold[0])
    rows.append(replace(rows[0], head=3))  # conflicting duplicate stays order-safe
    rows.append(ParsedRow(42, 1, "dep"))
    shuffled = list(rows)
    random.Random(7).shuffle(shuffled)
    assert score(gold, [rows]) == score(gold, [shuffled])


def test_exclude_punct_flag():
    gold = [_fig1()]
    report = score(gold, [_gold_rows(gold[0])], exclude_punct=True)
    assert report.total_tokens == 5


def test_sentence_count_mismatch():
    with pytest.raises(EvalError, match="sentence count mismatch"):
        score([_fig1()], [])
    # Streamed sides are both read to the end, so the message names full counts.
    for gold_count, predicted_count in [(3, 1), (1, 3), (0, 2), (2, 0)]:
        gold = (_fig1() for _ in range(gold_count))
        predicted = (_gold_rows(_fig1()) for _ in range(predicted_count))
        message = f"^sentence count mismatch: {gold_count} gold vs {predicted_count} predicted$"
        with pytest.raises(EvalError, match=message):
            score(gold, predicted)


def test_fixing_one_head_never_decreases_metrics():
    gold = [_fig1()]
    rows = _gold_rows(gold[0])
    rng = random.Random(3)
    broken = [replace(r, head=rng.choice([None, 0, 1, 2, 3])) for r in rows]
    before = score(gold, [broken])
    for i, gold_row in enumerate(rows):
        repaired = list(broken)
        repaired[i] = gold_row
        after = score(gold, [repaired])
        assert after.uas >= before.uas
        assert after.las >= before.las


def test_compare_reproduces_reference_deltas():
    # encoder-style parser, without vs with morphosyntactic features
    without = EvalReport(total_tokens=10000, head_correct=6105, both_correct=5024)
    with_feats = EvalReport(total_tokens=10000, head_correct=7141, both_correct=6433)
    assert (without.uas, without.las) == (61.05, 50.24)
    assert (with_feats.uas, with_feats.las) == (71.41, 64.33)
    delta = compare(without, with_feats)
    assert delta.las_delta == 14.09
    assert delta.uas_delta == 10.36

    # generative parser rows
    without = EvalReport(total_tokens=10000, head_correct=8830, both_correct=8437)
    with_feats = EvalReport(total_tokens=10000, head_correct=8916, both_correct=8697)
    delta = compare(without, with_feats)
    assert delta.uas_delta == 0.86
    assert delta.las_delta == 2.60


def test_compare_identical_reports():
    report = EvalReport(100, 90, 80)
    delta = compare(report, report)
    assert (delta.uas_delta, delta.las_delta) == (0.0, 0.0)


def test_compare_rejects_mismatched_token_counts():
    with pytest.raises(EvalError, match="token count mismatch"):
        compare(EvalReport(10, 5, 5), EvalReport(20, 5, 5))


def test_report_formatting():
    text = format_report(EvalReport(6, 5, 4, 1, 2))
    assert "UAS           83.33" in text
    assert "LAS           66.67" in text
    assert "total\t6" in text
    assert "unmatched\t1" in text
    assert "missing\t2" in text


def test_half_up_rounding():
    # 100 * 1/8 = 12.5 -> 12.50; 100 * 1/3 = 33.333 -> 33.33; 5/6 -> 83.33
    assert EvalReport(8, 1, 0).uas == 12.5
    assert EvalReport(3, 1, 0).uas == 33.33
    assert EvalReport(6, 5, 0).uas == 83.33
    assert EvalReport(16, 1, 0).uas == 6.25
    assert EvalReport(32, 1, 0).uas == 3.13  # 3.125 rounds half-up


@settings(max_examples=300, deadline=None)
@given(text=PREDICTION_TEXT, exclude_punct=st.booleans())
def test_score_never_raises_on_arbitrary_text(text, exclude_punct):
    report = score([_fig1()], [from_it_output(text)], exclude_punct=exclude_punct)
    assert report.both_correct <= report.head_correct <= report.total_tokens
    assert report.missing_gold_rows <= report.total_tokens


@pytest.mark.parametrize(
    "cell", ["1" * 5000, "0" * 5000 + "9" * 5000], ids=["digits", "zeros-then-digits"]
)
def test_too_long_number_scores_like_any_number_past_the_sentence(cell):
    rows = [line.rsplit("\t", 2)[0] for line in FIG1_CONLLU.splitlines()[2:-1]]

    def report(number):
        head_row = rows[0].split("\t")
        head_row[6] = number
        text = "\n".join(["\t".join(head_row), *rows[1:], f"{number}\tx\tx\tX\tNA\t_\t1\tdep"])
        return format_report(score([_fig1()], [from_it_output(text)]))

    assert report(cell) == report("9" * 30)
    assert "unmatched\t1\n" in report(cell)
