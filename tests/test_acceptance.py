"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are exact (byte or count equality) except the runtime
bounds, which are generous wall-clock ceilings.
"""

import random
import time
from fractions import Fraction

from conftest import FAMILY_FIXTURES, FIG1_CONLLU, FIG1_FEATS, blank_feats, make_sentence
from udmorph.conllu import FeatureBag, Sentence, Token, parse_conllu, serialize_conllu, validate
from udmorph.corrections import (
    AuxAnnotation,
    aggregate_stats,
    apply_records,
    correct_sentence,
)
from udmorph.evaluate import EvalReport, compare, score
from udmorph.itdata import ParsedRow, to_it_record
from udmorph.rules import enrich_sentence

EXPECTED_IT_INPUT = (
    "1\t학교\t학교\tNOUN\tNNG\t_\thead\trel\n"
    "2\t분위기나\t분위기+나\tNOUN\tNNG+JC\tCase=Disj\thead\trel\n"
    "3\t경관이\t경관+이\tNOUN\tNNG+JKS\tCase=Nom\thead\trel\n"
    "4\t굉장히\t굉장히\tADV\tMAG\t_\thead\trel\n"
    "5\t좋다\t좋+다\tADJ\tVA+EF\tMood=Ind\thead\trel\n"
    "6\t.\t.\tPUNCT\tSF\t_\thead\trel\n"
)

EXPECTED_IT_OUTPUT = (
    "1\t학교\t학교\tNOUN\tNNG\t_\t5\tnsubj\n"
    "2\t분위기나\t분위기+나\tNOUN\tNNG+JC\tCase=Disj\t1\tflat\n"
    "3\t경관이\t경관+이\tNOUN\tNNG+JKS\tCase=Nom\t1\tconj\n"
    "4\t굉장히\t굉장히\tADV\tMAG\t_\t5\tadvmod\n"
    "5\t좋다\t좋+다\tADJ\tVA+EF\tMood=Ind\t0\troot\n"
    "6\t.\t.\tPUNCT\tSF\t_\t5\tpunct\n"
)


def _passed(number, message):
    print(f"[PASS] criterion {number}: {message}")


def test_criterion_1_reference_sentence_end_to_end(pack):
    started = time.perf_counter()
    blanked = blank_feats(parse_conllu(FIG1_CONLLU)[0])
    enriched = enrich_sentence(blanked, pack)
    assert [t.feats.to_conllu() for t in enriched.tokens] == FIG1_FEATS

    record = to_it_record(enriched)
    assert record.instruction == "아래의 문장을 의존구조문법에 맞게 분석해줘"
    assert record.input == EXPECTED_IT_INPUT
    assert record.output == EXPECTED_IT_OUTPUT
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _passed(1, f"reference FEATS and IT blocks reproduced byte-for-byte ({elapsed:.3f}s)")


def test_criterion_2_feature_family_coverage(pack):
    started = time.perf_counter()
    corpus = [make_sentence(words, sent_id=f"f{i}") for i, (_, words, _, _, _) in enumerate(FAMILY_FIXTURES)]
    reparsed = parse_conllu(serialize_conllu(corpus))
    assert len(reparsed) == len(FAMILY_FIXTURES)

    families_hit = set()
    for sentence, (label, _, index, key, value) in zip(reparsed, FAMILY_FIXTURES):
        enriched = enrich_sentence(sentence, pack)
        got = enriched.tokens[index].feats.get(key)
        assert value in got, f"{label}: expected {key}={value}, bag has {got}"
        families_hit.add(key)
    assert len(families_hit) == 13
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    _passed(2, f"{len(FAMILY_FIXTURES)} fixtures across 13 feature families ({elapsed:.3f}s)")


def _correction_corpus():
    sentences = [
        make_sentence([("가격에", "가격+에", "NNG+JKB", "ADV"), ("올랐다", "오르+았+다", "VV+EP+EF", "VERB")], sent_id="c1"),
        make_sentence([("서울", "서울", "NNG", "NOUN"), ("갔다", "가+았+다", "VV+EP+EF", "VERB")], sent_id="c2"),
        make_sentence([("좋다", "좋+다", "VA+EF", "VERB")], sent_id="c3"),
        make_sentence([("한국", "한국", "NNP", "ADV"), ("갔다", "가+았+다", "VV+EP+EF", "VERB")], sent_id="c4"),
        make_sentence([("행복한", "행복+하+ㄴ", "XR+XSA+ETM", "ADV"), ("사람", "사람", "NNG", "NOUN")], sent_id="c5"),
        make_sentence([("행복하게", "행복+하+게", "XR+XSA+EC", "ADJ"), ("살았다", "살+았+다", "VV+EP+EF", "VERB")], sent_id="c6"),
        make_sentence([("경관이", "경관+이", "NNG+JKS", "NOUN"), ("되었다", "되+었+다", "VV+EP+EF", "VERB")], sent_id="c7"),
        make_sentence([("민주", "민주", "XR", "NOUN")], sent_id="c8"),
        make_sentence([("그러나", "그러나", "MAG", "ADV"), ("갔다", "가+았+다", "VV+EP+EF", "VERB")], sent_id="c9"),
    ]
    aux = {"c2": [AuxAnnotation("c2", 1, ner_label="LOC")]}
    return sentences, aux


def test_criterion_3_correction_fidelity_and_stats(pack):
    sentences, aux = _correction_corpus()
    corrected = []
    records = []
    for sentence in sentences:
        fixed, recs = correct_sentence(sentence, aux.get(sentence.sent_id, []), pack)
        corrected.append(fixed)
        records.extend(recs)

    assert corrected[0].tokens[0].upos == "NOUN"  # 가격에: ADV -> NOUN
    assert corrected[4].tokens[0].xpos == "NNG+XSA+ETM"  # XR+XSA+ETM normalized
    assert corrected[6].tokens[0].xpos == "NNG+JKC"  # complement before 되다

    # the worked reanalysis case: spurious copular segmentation collapses
    reanalysis = make_sentence(
        [("중일", "중+이+ㄹ", "NNB+VCP+ETM", "VERB"), ("관계", "관계", "NNG", "NOUN")],
        sent_id="c10",
    )
    fixed, recs = correct_sentence(
        reanalysis, [AuxAnnotation("c10", 1, ner_label="LOC", ext_xpos=("NNP",))], pack
    )
    token = fixed.tokens[0]
    assert (token.lemma, token.upos, token.xpos) == ("중일", "PROPN", "NNP")
    records.extend(recs)

    total_tokens = sum(len(s.tokens) for s in sentences) + len(reanalysis.tokens)
    stats = aggregate_stats(records, total_tokens)

    upos_pairs = {(r.original, r.corrected) for r in stats.for_field("UPOS")}
    assert upos_pairs >= {
        ("ADV", "NOUN"),
        ("NOUN", "PROPN"),
        ("VERB", "ADJ"),
        ("ADV", "PROPN"),
        ("ADV", "ADJ"),
    }
    xpos_pairs = {(r.original, r.corrected) for r in stats.for_field("XPOS")}
    assert xpos_pairs >= {
        ("XR+XSA+ETM", "NNG+XSA+ETM"),
        ("XR+XSA+EC", "NNG+XSA+EC"),
        ("NNG+JKS", "NNG+JKC"),
        ("XR", "NNG"),
        ("MAG", "MAJ"),
    }
    for row in stats.rows:
        assert row.ratio == row.count / total_tokens
    _passed(3, "worked corrections and all five conversion categories per field")


def _random_tree(rng, n):
    order = list(range(1, n + 1))
    rng.shuffle(order)
    heads = [0] * n
    attached = [order[0]]
    for token_id in order[1:]:
        heads[token_id - 1] = rng.choice(attached)
        attached.append(token_id)
    return heads


def _random_sentence(rng, index):
    n = rng.randint(1, 8)
    heads = _random_tree(rng, n)
    labels = ["nsubj", "obj", "advmod", "conj", "flat", "obl", "punct"]
    tokens = tuple(
        Token(
            id=i + 1,
            form=f"w{i + 1}",
            lemma=f"w{i + 1}",
            xpos="NNG",
            upos=rng.choice(["NOUN", "VERB", "ADV", "PUNCT"]),
            head=heads[i],
            deprel="root" if heads[i] == 0 else rng.choice(labels),
        )
        for i in range(n)
    )
    return Sentence(comments=(f"# sent_id = r{index}",), tokens=tokens)


def _perturb(rng, sentence):
    labels = ["nsubj", "obj", "advmod", "conj", "flat", "obl", "punct", "dep"]
    rows = []
    for token in sentence.tokens:
        if rng.random() < 0.10:
            continue  # dropped row
        head, deprel = token.head, token.deprel
        if rng.random() < 0.25:
            head = rng.choice([None, rng.randint(0, 9)])
        if rng.random() < 0.25:
            deprel = rng.choice([None] + labels)
        rows.append(ParsedRow(token.id, head, deprel))
        if rng.random() < 0.08:
            rows.append(ParsedRow(token.id, rng.randint(0, 9), rng.choice(labels)))
        if rng.random() < 0.05:
            rows.append(ParsedRow(token.id, head, deprel))  # verbatim repeat
    if rng.random() < 0.15:
        rows.append(ParsedRow(rng.randint(1, 20), 0, "root"))
    rng.shuffle(rows)
    return rows


def _half_up(numerator, denominator):
    if denominator == 0:
        return 0.0
    scaled = Fraction(100 * numerator, denominator) * 100 + Fraction(1, 2)
    return (scaled.numerator // scaled.denominator) / 100


def _oracle(sentences, predictions, exclude_punct=False):
    """Per-token counting oracle: linear scans, no shared code with score()."""
    total = head_ok = both_ok = unmatched = missing = 0
    for sentence, rows in zip(sentences, predictions):
        gold_ids = [t.id for t in sentence.tokens]

        def payloads_for(target_id):
            found = []
            for row in rows:
                if row.id == target_id:
                    found.append((row.head, row.deprel))
            distinct = []
            for payload in found:
                if payload not in distinct:
                    distinct.append(payload)
            return found, distinct

        for row in rows:
            if row.id not in gold_ids:
                unmatched += 1
        for gold_id in gold_ids:
            found, distinct = payloads_for(gold_id)
            if len(distinct) > 1:
                unmatched += len(found)
            elif len(found) > 1:
                unmatched += len(found) - 1

        for token in sentence.tokens:
            if exclude_punct and token.upos == "PUNCT":
                continue
            total += 1
            found, distinct = payloads_for(token.id)
            if len(distinct) != 1:
                missing += 1
                continue
            head, deprel = distinct[0]
            if head is not None and head == token.head:
                head_ok += 1
                if deprel is not None and deprel == token.deprel:
                    both_ok += 1
    return total, head_ok, both_ok, unmatched, missing


def test_criterion_4_metric_oracle_equivalence():
    started = time.perf_counter()
    rng = random.Random(20250809)
    sentences = [_random_sentence(rng, i) for i in range(1000)]
    predictions = [_perturb(rng, s) for s in sentences]

    for exclude_punct in (False, True):
        report = score(sentences, predictions, exclude_punct=exclude_punct)
        total, head_ok, both_ok, unmatched, missing = _oracle(
            sentences, predictions, exclude_punct=exclude_punct
        )
        assert report.total_tokens == total
        assert report.head_correct == head_ok
        assert report.both_correct == both_ok
        assert report.unmatched_predicted_rows == unmatched
        assert report.missing_gold_rows == missing
        assert report.uas == _half_up(head_ok, total)
        assert report.las == _half_up(both_ok, total)

    encoder_without = EvalReport(10000, 6105, 5024)   # UAS 61.05, LAS 50.24
    encoder_with = EvalReport(10000, 7141, 6433)      # UAS 71.41, LAS 64.33
    assert compare(encoder_without, encoder_with).las_delta == 14.09
    generative_without = EvalReport(10000, 8830, 8437)  # UAS 88.30, LAS 84.37
    generative_with = EvalReport(10000, 8916, 8697)     # UAS 89.16, LAS 86.97
    assert compare(generative_without, generative_with).uas_delta == 0.86

    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    _passed(4, f"1000 random sentences match the brute-force oracle; published deltas reproduced ({elapsed:.1f}s)")


def test_criterion_5_round_trip_and_idempotence(pack):
    family_corpus = serialize_conllu(
        make_sentence(words, sent_id=f"f{i}") for i, (_, words, _, _, _) in enumerate(FAMILY_FIXTURES)
    )
    correction_corpus = serialize_conllu(_correction_corpus()[0])
    fixtures = [FIG1_CONLLU, family_corpus, correction_corpus]

    for text in fixtures:
        assert serialize_conllu(parse_conllu(text)) == text
        assert validate(parse_conllu(text)) == []

    for text in fixtures:
        sentences = parse_conllu(text)
        once = [enrich_sentence(s, pack) for s in sentences]
        twice = [enrich_sentence(s, pack) for s in once]
        assert serialize_conllu(twice) == serialize_conllu(once)
        assert validate(once) == []

    sentences, aux = _correction_corpus()
    corrected = []
    for sentence in sentences:
        fixed, records = correct_sentence(sentence, aux.get(sentence.sent_id, []), pack)
        refixed, second_records = correct_sentence(fixed, aux.get(sentence.sent_id, []), pack)
        assert refixed == fixed
        assert second_records == []
        assert apply_records(sentence, records) == fixed
        corrected.append(fixed)
    assert validate(corrected) == []
    assert serialize_conllu(
        apply_records(s, correct_sentence(s, aux.get(s.sent_id, []), pack)[1]) for s in sentences
    ) == serialize_conllu(corrected)
    _passed(5, "byte-exact round trips; enrich/correct idempotent; records replay exactly")


def test_criterion_6_out_of_scope_substitution_note():
    # Absolute treebank-scale scores and corpus-level conversion counts need
    # the released corpus and trained parsers; criteria 3-5 stand in for them
    # with fixture- and property-based checks.  Nothing to execute here.
    _passed(6, "corpus-scale numbers substituted by criteria 3-5 (fixture/property based)")
