import io
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SEJONG_TREEBANK, make_sentence
from udmorph.conllu import SEJONG_TAGS, parse_conllu, serialize_conllu, validate
from udmorph.corrections import (
    AuxAnnotation,
    CorrectionError,
    CorrectionRecord,
    aggregate_stats,
    apply_records,
    correct_sentence,
    format_stats,
    read_aux_sidecar,
    read_records,
    write_records,
)
from udmorph.rules import enrich_sentence


def test_temporal_noun_mislabeled_adv(pack):
    sentence = make_sentence(
        [("가격에", "가격+에", "NNG+JKB", "ADV"), ("올랐다", "오르+았+다", "VV+EP+EF", "VERB")],
        sent_id="s1",
    )
    corrected, records = correct_sentence(sentence, [], pack)
    assert corrected.tokens[0].upos == "NOUN"
    assert [(r.field, r.original, r.corrected) for r in records] == [("UPOS", "ADV", "NOUN")]


def test_root_fragment_normalization(pack):
    sentence = make_sentence(
        [("행복한", "행복+하+ㄴ", "XR+XSA+ETM", "ADV"), ("사람", "사람", "NNG", "NOUN")],
        sent_id="s1",
    )
    corrected, records = correct_sentence(sentence, [], pack)
    assert corrected.tokens[0].xpos == "NNG+XSA+ETM"
    assert corrected.tokens[0].upos == "ADJ"
    changes = {(r.field, r.original, r.corrected) for r in records}
    assert ("XPOS", "XR+XSA+ETM", "NNG+XSA+ETM") in changes
    assert ("UPOS", "ADV", "ADJ") in changes


def test_standalone_root_fragment(pack):
    sentence = make_sentence([("민주", "민주", "XR", "NOUN")], sent_id="s1")
    corrected, records = correct_sentence(sentence, [], pack)
    assert corrected.tokens[0].xpos == "NNG"
    assert [(r.field, r.original, r.corrected) for r in records] == [("XPOS", "XR", "NNG")]


def test_complement_marker_via_dependency_head(pack):
    sentence = make_sentence(
        [("경관이", "경관+이", "NNG+JKS", "NOUN"), ("되었다", "되+었+다", "VV+EP+EF", "VERB")],
        sent_id="s1",
        heads=[2, 0],
        deprels=["obj", "root"],
    )
    corrected, records = correct_sentence(sentence, [], pack)
    assert corrected.tokens[0].xpos == "NNG+JKC"
    assert records[0].rule_id == "complement-jkc"
    # structure untouched
    assert [t.head for t in corrected.tokens] == [2, 0]
    assert [t.deprel for t in corrected.tokens] == ["obj", "root"]


def test_complement_marker_positional_fallback(pack):
    sentence = make_sentence(
        [("학생이", "학생+이", "NNG+JKS", "NOUN"), ("아니다", "아니+다", "VCN+EF", "ADJ")],
        sent_id="s1",
        heads=[None, 0],
        deprels=["obj", "root"],
    )
    corrected, _ = correct_sentence(sentence, [], pack)
    assert corrected.tokens[0].xpos == "NNG+JKC"


def test_subject_marker_kept_without_copular_head(pack):
    sentence = make_sentence(
        [("경관이", "경관+이", "NNG+JKS", "NOUN"), ("좋다", "좋+다", "VA+EF", "ADJ")],
        sent_id="s1",
        heads=[2, 0],
        deprels=["nsubj", "root"],
    )
    corrected, records = correct_sentence(sentence, [], pack)
    assert corrected.tokens[0].xpos == "NNG+JKS"
    assert records == []


def test_ner_promotes_common_noun(pack):
    sentence = make_sentence(
        [("서울", "서울", "NNG", "NOUN"), ("갔다", "가+았+다", "VV+EP+EF", "VERB")],
        sent_id="s1",
    )
    aux = [AuxAnnotation("s1", 1, ner_label="LOC")]
    corrected, records = correct_sentence(sentence, aux, pack)
    assert corrected.tokens[0].xpos == "NNP"
    assert corrected.tokens[0].upos == "PROPN"
    assert {r.rule_id for r in records} == {"ner-propn"}


def test_ner_demotes_unrecognized_proper_noun(pack):
    sentence = make_sentence(
        [("가방", "가방", "NNP", "PROPN"), ("샀다", "사+았+다", "VV+EP+EF", "VERB")],
        sent_id="s1",
    )
    aux = [AuxAnnotation("s1", 1, ner_label=None)]
    corrected, records = correct_sentence(sentence, aux, pack)
    assert corrected.tokens[0].xpos == "NNG"
    assert corrected.tokens[0].upos == "NOUN"
    assert {r.rule_id for r in records} == {"ner-common"}


def test_ner_rules_skipped_without_sidecar_entry(pack):
    sentence = make_sentence(
        [("가방", "가방", "NNP", "PROPN"), ("샀다", "사+았+다", "VV+EP+EF", "VERB")],
        sent_id="s1",
    )
    corrected, records = correct_sentence(sentence, [], pack)
    assert corrected.tokens[0].xpos == "NNP"
    assert records == []


def test_external_reanalysis_collapses_segmentation(pack):
    sentence = make_sentence(
        [("중일", "중+이+ㄹ", "NNB+VCP+ETM", "VERB"), ("관계", "관계", "NNG", "NOUN")],
        sent_id="s1",
    )
    aux = [AuxAnnotation("s1", 1, ner_label="LOC", ext_xpos=("NNP",))]
    corrected, records = correct_sentence(sentence, aux, pack)
    token = corrected.tokens[0]
    assert (token.lemma, token.upos, token.xpos) == ("중일", "PROPN", "NNP")
    changes = {(r.field, r.original, r.corrected) for r in records}
    assert ("LEMMA", "중+이+ㄹ", "중일") in changes
    assert ("XPOS", "NNB+VCP+ETM", "NNP") in changes
    assert ("UPOS", "VERB", "PROPN") in changes


@pytest.mark.parametrize("form", ["1+2", "_", ""])
def test_external_reanalysis_keeps_a_form_no_lemma_can_hold(pack, form):
    # as LEMMA this form would read back as 2 or 0 segments for 1 tag
    sentence = make_sentence([(form, "1+2", "SN+SN", "NUM")], sent_id="s1")
    aux = [AuxAnnotation("s1", 1, ext_xpos=("SN",))]
    corrected, records = correct_sentence(sentence, aux, pack)
    assert corrected == sentence
    assert records == []


def test_external_retagging_same_length(pack):
    sentence = make_sentence(
        [("예쁘다", "예쁘+다", "VV+EF", "VERB")],
        sent_id="s1",
    )
    aux = [AuxAnnotation("s1", 1, ext_xpos=("VA", "EF"))]
    corrected, records = correct_sentence(sentence, aux, pack)
    assert corrected.tokens[0].xpos == "VA+EF"
    assert corrected.tokens[0].upos == "ADJ"


def test_conjunctive_adverb(pack):
    sentence = make_sentence(
        [("그러나", "그러나", "MAG", "ADV"), ("갔다", "가+았+다", "VV+EP+EF", "VERB")],
        sent_id="s1",
    )
    corrected, records = correct_sentence(sentence, [], pack)
    assert corrected.tokens[0].xpos == "MAJ"
    assert corrected.tokens[0].upos == "ADV"
    assert [(r.field, r.original, r.corrected) for r in records] == [("XPOS", "MAG", "MAJ")]


def test_already_canonical_sentence_is_fixed_point(pack):
    sentence = make_sentence(
        [("학교", "학교", "NNG", "NOUN"), ("좋다", "좋+다", "VA+EF", "ADJ")],
        sent_id="s1",
    )
    corrected, records = correct_sentence(sentence, [], pack)
    assert corrected == sentence
    assert records == []


def test_correction_is_idempotent(pack):
    sentence = make_sentence(
        [
            ("가격에", "가격+에", "NNG+JKB", "ADV"),
            ("행복한", "행복+하+ㄴ", "XR+XSA+ETM", "ADV"),
            ("그러나", "그러나", "MAG", "ADV"),
            ("되었다", "되+었+다", "VV+EP+EF", "VERB"),
        ],
        sent_id="s1",
    )
    once, records = correct_sentence(sentence, [], pack)
    twice, second_records = correct_sentence(once, [], pack)
    assert twice == once
    assert second_records == []
    # corrections never touch ids, heads, relations or surface forms
    for before, after in zip(sentence.tokens, once.tokens):
        assert (before.id, before.form, before.head, before.deprel) == (
            after.id,
            after.form,
            after.head,
            after.deprel,
        )


def test_replay_reproduces_correction(pack):
    sentence = make_sentence(
        [
            ("가격에", "가격+에", "NNG+JKB", "ADV"),
            ("행복한", "행복+하+ㄴ", "XR+XSA+ETM", "ADV"),
            ("되었다", "되+었+다", "VV+EP+EF", "VERB"),
        ],
        sent_id="s1",
    )
    corrected, records = correct_sentence(sentence, [], pack)
    assert apply_records(sentence, records) == corrected


@pytest.mark.parametrize(
    "record,message",
    [
        (CorrectionRecord("s1", 0, "UPOS", "NOUN", "PROPN", "r"), "names no token of the 2-token"),
        (CorrectionRecord("s1", 3, "UPOS", "NOUN", "PROPN", "r"), "names no token of the 2-token"),
        (CorrectionRecord("s1", 1, "UPOS", "ADV", "NOUN", "r"), "expects UPOS 'ADV', the token has 'NOUN'"),
        (CorrectionRecord("s1", 2, "LEMMA", "좋+다", "좋다", "r"), "expects LEMMA '좋+다', the token has '좋+아'"),
    ],
    ids=["token-id-zero", "token-id-past-end", "upos-mismatch", "lemma-mismatch"],
)
def test_replay_rejects_a_record_that_does_not_fit(record, message):
    sentence = make_sentence(
        [("학교", "학교", "NNG", "NOUN"), ("좋아", "좋+아", "VA+EF", "ADJ")], sent_id="s1"
    )
    with pytest.raises(CorrectionError, match=re.escape(message)):
        apply_records(sentence, [record])


def test_unresolvable_aux_reference(pack):
    sentence = make_sentence([("학교", "학교", "NNG", "NOUN")], sent_id="s1")
    with pytest.raises(CorrectionError, match="missing token"):
        correct_sentence(sentence, [AuxAnnotation("s1", 7, ner_label="LOC")], pack)


# ------------------------------------------------------------------ statistics

def _record(field, original, corrected, token_id=1):
    return CorrectionRecord("s1", token_id, field, original, corrected, "r")


def test_aggregate_groups_and_sorts():
    records = [
        _record("UPOS", "ADV", "NOUN"),
        _record("UPOS", "ADV", "NOUN", token_id=2),
        _record("XPOS", "XR", "NNG"),
    ]
    stats = aggregate_stats(records, total_tokens=20)
    assert stats.rows[0].count == 2
    assert stats.rows[0].ratio == pytest.approx(0.1)
    assert [r.field for r in stats.rows] == ["UPOS", "XPOS"]
    assert stats.for_field("XPOS")[0].ratio == pytest.approx(0.05)


def test_aggregate_empty_and_invalid_total():
    assert aggregate_stats([], 10).rows == ()
    with pytest.raises(CorrectionError):
        aggregate_stats([], 0)


def test_stats_formatting_four_decimals():
    stats = aggregate_stats([_record("UPOS", "ADV", "NOUN")], total_tokens=3607 * 247)
    text = format_stats(stats)
    assert "original\tcorrected\tcount\tratio" in text
    assert "ADV\tNOUN\t1\t0.0000" in text
    stats = aggregate_stats([_record("UPOS", "ADV", "NOUN")] * 3607, total_tokens=56715)
    assert "ADV\tNOUN\t3607\t0.0636" in format_stats(stats)


def test_log_rejects_a_token_id_below_one():
    with pytest.raises(CorrectionError, match="line 3: token_id must be at least 1, got -2"):
        read_records("# total_tokens\t4\ns1\t1\tUPOS\tADV\tNOUN\tr\ns1\t-2\tUPOS\tADV\tNOUN\tr\n")


def test_records_round_trip_through_log():
    records = [
        _record("UPOS", "ADV", "NOUN"),
        _record("XPOS", "XR+XSA+ETM", "NNG+XSA+ETM", token_id=3),
    ]
    sink = io.StringIO()
    write_records(records, 42, sink)
    parsed, total = read_records(sink.getvalue())
    assert parsed == records
    assert total == 42


def test_log_refuses_a_sent_id_holding_a_tab_before_writing_anything():
    records = [
        _record("UPOS", "ADV", "NOUN"),
        CorrectionRecord("a\tb", 1, "UPOS", "ADV", "NOUN", "r"),
    ]
    sink = io.StringIO()
    with pytest.raises(CorrectionError, match=r"sent_id 'a\\tb' holds a tab"):
        write_records(records, 2, sink)
    assert sink.getvalue() == ""


def test_sidecar_parsing():
    text = "# comment\ns1\t1\tLOC\tNNP\ns1\t2\t_\t_\ns2\t1\tPER\tNNG+JKS\n"
    entries = read_aux_sidecar(text)
    assert entries[0] == AuxAnnotation("s1", 1, "LOC", ("NNP",))
    assert entries[1] == AuxAnnotation("s1", 2, None, None)
    assert entries[2].ext_xpos == ("NNG", "JKS")
    with pytest.raises(CorrectionError, match="unknown XPOS tag"):
        read_aux_sidecar("s1\t1\t_\tZZZ\n")


def _aux_entries(sentence):
    tags = st.lists(st.sampled_from(sorted(SEJONG_TAGS)), min_size=1, max_size=3).map(tuple)
    entry = st.builds(
        AuxAnnotation,
        sent_id=st.just(sentence.sent_id or ""),
        token_id=st.integers(1, len(sentence.tokens)),
        ner_label=st.sampled_from([None, "PER"]),
        ext_xpos=st.one_of(st.none(), tags),
    )
    return st.lists(entry, max_size=3)


@settings(max_examples=300, deadline=None)
@given(text=SEJONG_TREEBANK, data=st.data())
def test_enrich_then_correct_output_reparses_and_stays_valid(pack, text, data):
    sentences = parse_conllu(text)
    written = serialize_conllu(
        correct_sentence(enrich_sentence(s, pack), data.draw(_aux_entries(s)), pack)[0]
        for s in sentences
    )
    reparsed = parse_conllu(written)
    for before, after in zip(sentences, reparsed, strict=True):
        if not validate([before]):
            assert validate([after]) == []


@settings(max_examples=300, deadline=None)
@given(text=SEJONG_TREEBANK, data=st.data())
def test_log_written_and_read_back_replays_to_the_corrected_sentence(pack, text, data):
    sentences = parse_conllu(text)
    for sentence in sentences:
        corrected, records = correct_sentence(sentence, data.draw(_aux_entries(sentence)), pack)
        sink = io.StringIO()
        write_records(records, len(sentence.tokens), sink)
        replayed, total = read_records(sink.getvalue())
        assert total == len(sentence.tokens)
        assert apply_records(sentence, replayed) == corrected
