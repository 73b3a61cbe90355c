import gc
import pickle
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SEJONG_TREEBANK, make_sentence
from udmorph.cli import main
from udmorph.conllu import SEJONG_TAGS, Token, parse_conllu, serialize_conllu, validate
from udmorph.corrections import (
    AuxAnnotation,
    CorrectionError,
    ConversionStats,
    CorrectionRecord,
    StatsRow,
    aggregate_stats,
    apply_records,
    correct_sentence,
    format_log_rows,
    format_stats,
    log_header,
    log_stats,
    read_aux_sidecar,
    read_records,
)
from udmorph.itdata import to_it_record
from udmorph.rules import enrich_sentence


def test_temporal_noun_mislabeled_adv():
    sentence = make_sentence(
        [("가격에", "가격+에", "NNG+JKB", "ADV"), ("올랐다", "오르+았+다", "VV+EP+EF", "VERB")],
        sent_id="s1",
    )
    corrected, records = correct_sentence(sentence, [])
    assert corrected.tokens[0].upos == "NOUN"
    assert [(r.field, r.original, r.corrected) for r in records] == [("UPOS", "ADV", "NOUN")]


def test_root_fragment_normalization():
    sentence = make_sentence(
        [("행복한", "행복+하+ㄴ", "XR+XSA+ETM", "ADV"), ("사람", "사람", "NNG", "NOUN")],
        sent_id="s1",
    )
    corrected, records = correct_sentence(sentence, [])
    assert corrected.tokens[0].xpos == "NNG+XSA+ETM"
    assert corrected.tokens[0].upos == "ADJ"
    changes = {(r.field, r.original, r.corrected) for r in records}
    assert ("XPOS", "XR+XSA+ETM", "NNG+XSA+ETM") in changes
    assert ("UPOS", "ADV", "ADJ") in changes


def test_standalone_root_fragment():
    sentence = make_sentence([("민주", "민주", "XR", "NOUN")], sent_id="s1")
    corrected, records = correct_sentence(sentence, [])
    assert corrected.tokens[0].xpos == "NNG"
    assert [(r.field, r.original, r.corrected) for r in records] == [("XPOS", "XR", "NNG")]


def test_complement_marker_via_dependency_head():
    sentence = make_sentence(
        [("경관이", "경관+이", "NNG+JKS", "NOUN"), ("되었다", "되+었+다", "VV+EP+EF", "VERB")],
        sent_id="s1",
        heads=[2, 0],
        deprels=["obj", "root"],
    )
    corrected, records = correct_sentence(sentence, [])
    assert corrected.tokens[0].xpos == "NNG+JKC"
    assert records[0].rule_id == "complement-jkc"
    # structure untouched
    assert [t.head for t in corrected.tokens] == [2, 0]
    assert [t.deprel for t in corrected.tokens] == ["obj", "root"]


def test_complement_marker_positional_fallback():
    sentence = make_sentence(
        [("학생이", "학생+이", "NNG+JKS", "NOUN"), ("아니다", "아니+다", "VCN+EF", "ADJ")],
        sent_id="s1",
        heads=[None, 0],
        deprels=["obj", "root"],
    )
    corrected, _ = correct_sentence(sentence, [])
    assert corrected.tokens[0].xpos == "NNG+JKC"


def test_subject_marker_kept_without_copular_head():
    sentence = make_sentence(
        [("경관이", "경관+이", "NNG+JKS", "NOUN"), ("좋다", "좋+다", "VA+EF", "ADJ")],
        sent_id="s1",
        heads=[2, 0],
        deprels=["nsubj", "root"],
    )
    corrected, records = correct_sentence(sentence, [])
    assert corrected.tokens[0].xpos == "NNG+JKS"
    assert records == []


def test_ner_promotes_common_noun():
    sentence = make_sentence(
        [("서울", "서울", "NNG", "NOUN"), ("갔다", "가+았+다", "VV+EP+EF", "VERB")],
        sent_id="s1",
    )
    aux = [AuxAnnotation("s1", 1, ner_label="LOC")]
    corrected, records = correct_sentence(sentence, aux)
    assert corrected.tokens[0].xpos == "NNP"
    assert corrected.tokens[0].upos == "PROPN"
    assert {r.rule_id for r in records} == {"ner-propn"}


def test_ner_demotes_unrecognized_proper_noun():
    sentence = make_sentence(
        [("가방", "가방", "NNP", "PROPN"), ("샀다", "사+았+다", "VV+EP+EF", "VERB")],
        sent_id="s1",
    )
    aux = [AuxAnnotation("s1", 1, ner_label=None)]
    corrected, records = correct_sentence(sentence, aux)
    assert corrected.tokens[0].xpos == "NNG"
    assert corrected.tokens[0].upos == "NOUN"
    assert {r.rule_id for r in records} == {"ner-common"}


def test_ner_rules_skipped_without_sidecar_entry():
    sentence = make_sentence(
        [("가방", "가방", "NNP", "PROPN"), ("샀다", "사+았+다", "VV+EP+EF", "VERB")],
        sent_id="s1",
    )
    corrected, records = correct_sentence(sentence, [])
    assert corrected.tokens[0].xpos == "NNP"
    assert records == []


def test_external_reanalysis_collapses_segmentation():
    sentence = make_sentence(
        [("중일", "중+이+ㄹ", "NNB+VCP+ETM", "VERB"), ("관계", "관계", "NNG", "NOUN")],
        sent_id="s1",
    )
    aux = [AuxAnnotation("s1", 1, ner_label="LOC", ext_xpos=("NNP",))]
    corrected, records = correct_sentence(sentence, aux)
    token = corrected.tokens[0]
    assert (token.lemma, token.upos, token.xpos) == ("중일", "PROPN", "NNP")
    changes = {(r.field, r.original, r.corrected) for r in records}
    assert ("LEMMA", "중+이+ㄹ", "중일") in changes
    assert ("XPOS", "NNB+VCP+ETM", "NNP") in changes
    assert ("UPOS", "VERB", "PROPN") in changes


@pytest.mark.parametrize("form", ["1+2", "_", ""])
def test_external_reanalysis_keeps_a_form_no_lemma_can_hold(form):
    # as LEMMA this form would read back as 2 or 0 segments for 1 tag
    sentence = make_sentence([(form, "1+2", "SN+SN", "NUM")], sent_id="s1")
    aux = [AuxAnnotation("s1", 1, ext_xpos=("SN",))]
    corrected, records = correct_sentence(sentence, aux)
    assert corrected == sentence
    assert records == []


def test_external_retagging_same_length():
    sentence = make_sentence(
        [("예쁘다", "예쁘+다", "VV+EF", "VERB")],
        sent_id="s1",
    )
    aux = [AuxAnnotation("s1", 1, ext_xpos=("VA", "EF"))]
    corrected, records = correct_sentence(sentence, aux)
    assert corrected.tokens[0].xpos == "VA+EF"
    assert corrected.tokens[0].upos == "ADJ"


def test_conjunctive_adverb():
    sentence = make_sentence(
        [("그러나", "그러나", "MAG", "ADV"), ("갔다", "가+았+다", "VV+EP+EF", "VERB")],
        sent_id="s1",
    )
    corrected, records = correct_sentence(sentence, [])
    assert corrected.tokens[0].xpos == "MAJ"
    assert corrected.tokens[0].upos == "ADV"
    assert [(r.field, r.original, r.corrected) for r in records] == [("XPOS", "MAG", "MAJ")]


@pytest.mark.parametrize(
    "word", ["그러나", "그리고", "하지만", "그런데", "그래서", "따라서", "그러므로", "또한"]
)
def test_each_conjunctive_adverb_is_retagged_maj(word):
    sentence = make_sentence([(word, word, "MAG", "ADV"), ("갔다", "가+았+다", "VV+EP+EF", "VERB")])
    _, records = correct_sentence(sentence, [])
    assert [(r.token_id, r.field, r.original, r.corrected, r.rule_id) for r in records] == [
        (1, "XPOS", "MAG", "MAJ", "conj-adverb")
    ]


@pytest.mark.parametrize(
    "word",
    [("굉장히", "굉장히", "MAG", "ADV"), ("그러나", "그렇+나", "MAG+EC", "ADV")],
    ids=["other-adverb", "two-morphemes"],
)
def test_no_other_word_is_retagged_as_a_conjunctive_adverb(word):
    sentence = make_sentence([word, ("갔다", "가+았+다", "VV+EP+EF", "VERB")])
    _, records = correct_sentence(sentence, [])
    assert "conj-adverb" not in {r.rule_id for r in records}


def test_already_canonical_sentence_is_fixed_point():
    sentence = make_sentence(
        [("학교", "학교", "NNG", "NOUN"), ("좋다", "좋+다", "VA+EF", "ADJ")],
        sent_id="s1",
    )
    corrected, records = correct_sentence(sentence, [])
    assert corrected == sentence
    assert records == []


def test_correction_is_idempotent():
    sentence = make_sentence(
        [
            ("가격에", "가격+에", "NNG+JKB", "ADV"),
            ("행복한", "행복+하+ㄴ", "XR+XSA+ETM", "ADV"),
            ("그러나", "그러나", "MAG", "ADV"),
            ("되었다", "되+었+다", "VV+EP+EF", "VERB"),
        ],
        sent_id="s1",
    )
    once, records = correct_sentence(sentence, [])
    twice, second_records = correct_sentence(once, [])
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


def test_replay_reproduces_correction():
    sentence = make_sentence(
        [
            ("가격에", "가격+에", "NNG+JKB", "ADV"),
            ("행복한", "행복+하+ㄴ", "XR+XSA+ETM", "ADV"),
            ("되었다", "되+었+다", "VV+EP+EF", "VERB"),
        ],
        sent_id="s1",
    )
    corrected, records = correct_sentence(sentence, [])
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


def test_unresolvable_aux_reference():
    sentence = make_sentence([("학교", "학교", "NNG", "NOUN")], sent_id="s1")
    with pytest.raises(CorrectionError, match="missing token"):
        correct_sentence(sentence, [AuxAnnotation("s1", 7, ner_label="LOC")])


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
    assert aggregate_stats([], 0).rows == ()
    with pytest.raises(CorrectionError, match="^total_tokens must not be negative$"):
        aggregate_stats([], -1)
    records = [_record("UPOS", "ADV", "NOUN"), _record("UPOS", "ADV", "NOUN", token_id=2)]
    with pytest.raises(CorrectionError, match="^total_tokens 1 is below the 2 corrected tokens$"):
        aggregate_stats(records, 1)


def _set_of_pairs_stats(records, total_tokens):
    """`aggregate_stats` as it was, with a set of (sent_id, token_id) pairs."""
    if total_tokens < 0:
        raise CorrectionError("total_tokens must not be negative")
    distinct_tokens = {(r.sent_id, r.token_id) for r in records}
    if total_tokens < len(distinct_tokens):
        raise CorrectionError(
            f"total_tokens {total_tokens} is below the {len(distinct_tokens)} corrected tokens"
        )
    counts = {}
    for rec in records:
        key = (rec.field, rec.original, rec.corrected)
        counts[key] = counts.get(key, 0) + 1
    rows = [
        StatsRow(field, original, corrected, count, count / total_tokens)
        for (field, original, corrected), count in counts.items()
    ]
    rows.sort(key=lambda r: (-r.count, r.field, r.original, r.corrected))
    return ConversionStats(total_tokens, tuple(rows))


def _stats_outcome(stats, *args):
    try:
        return stats(*args)
    except CorrectionError as error:
        return str(error)


_LOGGED_RECORDS = st.lists(
    st.builds(
        CorrectionRecord,
        sent_id=st.sampled_from(["", "s1", "s2"]),
        # ids on both sides of the bit-set bound, and one far past it
        token_id=st.sampled_from([1, 2, 3, 4095, 4096, 4097, 10**30]),
        field=st.sampled_from(["UPOS", "XPOS"]),
        original=st.sampled_from(["", "ADV", "NNG"]),
        corrected=st.sampled_from(["NOUN", "XR"]),
        rule_id=st.just("r"),
    ),
    max_size=12,
)


@settings(max_examples=200, deadline=None)
@given(records=_LOGGED_RECORDS, total=st.one_of(st.none(), st.integers(-1, 12)))
def test_stats_count_what_the_set_of_pairs_counted(records, total):
    log = log_header(7) + format_log_rows(records)
    expected = _stats_outcome(_set_of_pairs_stats, records, 7 if total is None else total)
    assert _stats_outcome(log_stats, log, total) == expected
    if total is not None:
        assert _stats_outcome(aggregate_stats, iter(records), total) == expected
        headless = log.split("\n", 1)[1]
        assert _stats_outcome(log_stats, headless, total) == expected
        assert _stats_outcome(log_stats, headless) == (
            "no total_tokens header in the log; pass --total-tokens"
        )


def test_replaying_a_record_of_an_unknown_field_is_an_error():
    sentence = make_sentence([("학교", "학교", "NNG", "NOUN")], sent_id="s1")
    with pytest.raises(CorrectionError, match="^unknown record field 'FEATS'$"):
        apply_records(sentence, [_record("FEATS", "_", "Case=Nom")])


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


def test_log_skips_a_blank_line_and_refuses_a_row_of_five_columns():
    log = "# total_tokens\t4\ns1\t1\tUPOS\tADV\tNOUN\tr\n\ns1\t2\tUPOS\tADV\tNOUN\tr\n"
    records, total = read_records(log)
    assert [r.token_id for r in records] == [1, 2] and total == 4
    with pytest.raises(CorrectionError, match="^line 2: expected 6 columns, got 5$"):
        read_records("# total_tokens\t4\ns1\t1\tUPOS\tADV\tNOUN\n")


def test_records_round_trip_through_log():
    records = [
        _record("UPOS", "ADV", "NOUN"),
        _record("XPOS", "XR+XSA+ETM", "NNG+XSA+ETM", token_id=3),
    ]
    parsed, total = read_records(log_header(42) + format_log_rows(records))
    assert parsed == records
    assert total == 42


def test_log_refuses_a_sent_id_holding_a_tab_before_writing_anything():
    records = [
        _record("UPOS", "ADV", "NOUN"),
        CorrectionRecord("a\tb", 1, "UPOS", "ADV", "NOUN", "r"),
    ]
    with pytest.raises(CorrectionError, match=r"sent_id 'a\\tb' holds a tab"):
        format_log_rows(records)


def test_log_refuses_a_sent_id_of_one_underscore_which_reads_back_as_none(tmp_path, capsys):
    with pytest.raises(CorrectionError, match=r"^sent_id '_' reads back from a log as no sent_id$"):
        format_log_rows([CorrectionRecord("_", 1, "UPOS", "NOUN", "VERB", "r")])
    src = tmp_path / "in.conllu"
    src.write_text("# sent_id = _\n1\t가고\t가+고\tNOUN\tVV+EC\t_\t0\troot\t_\t_\n\n", encoding="utf-8")
    argv = ["correct", str(src), "--records", str(tmp_path / "log.tsv"), "-o", str(tmp_path / "out")]
    assert main(argv) == 2
    assert capsys.readouterr().err == "udmorph correct: sent_id '_' reads back from a log as no sent_id\n"
    assert [p.name for p in tmp_path.iterdir()] == ["in.conllu"]


def test_log_refuses_a_sent_id_that_starts_with_a_hash_which_reads_back_as_a_comment(tmp_path, capsys):
    message = "sent_id '#s1' starts with '#', which reads back from a log as a comment"
    with pytest.raises(CorrectionError, match=f"^{re.escape(message)}$"):
        format_log_rows([CorrectionRecord("#s1", 1, "UPOS", "NOUN", "VERB", "r")])
    src = tmp_path / "in.conllu"
    src.write_text("# sent_id = #s1\n1\t먹어\t먹+어\tNOUN\tVV+EC\t_\t0\troot\t_\t_\n\n", encoding="utf-8")
    argv = ["correct", str(src), "--records", str(tmp_path / "log.tsv"), "-o", str(tmp_path / "out")]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"udmorph correct: {message}\n"
    assert [p.name for p in tmp_path.iterdir()] == ["in.conllu"]


# the first word is tagged ADV, which `correct` retags NOUN, so every
# sentence is rebuilt; the others match word-internal and lookahead rules
_GUARD_WORDS = (
    ("가격에", "가격+에", "NNG+JKB", "ADV"),
    ("먹어", "먹+어", "VV+EC", "VERB"),
    ("버렸다", "버리+었+다", "VX+EP+EF", "AUX"),
    ("하고", "하+고", "VV+EC", "VERB"),
    ("있다", "있+다", "VX+EF", "AUX"),
    ("비가", "비+가", "NNG+JKS", "NOUN"),
    ("오면", "오+면", "VV+EC", "VERB"),
    ("갈게", "가+ㄹ게", "VV+EF", "VERB"),
)


def test_correct_and_enrich_hold_no_memory_per_sentence(pack):
    # CPython keeps up to 2,000 freed tuples of each size from 1 to 20 for
    # reuse.  `tuple()` of a generator starts at 10 slots and resizes, so
    # each sentence of another length would leave a block in its size's stock.
    sentences = [
        make_sentence(
            [_GUARD_WORDS[0]] + [_GUARD_WORDS[1 + (i + k) % 7] for k in range(i % 20)],
            sent_id=f"s{i}",
        )
        for i in range(3_000)
    ]

    def run():
        for sentence in sentences:
            correct_sentence(sentence, [])
            enrich_sentence(sentence, pack)

    # a full collection empties the stocks, so none runs from here on
    gc.collect()
    gc.disable()
    try:
        run()  # fills the memos
        before = sys.getallocatedblocks()
        run()
        growth = sys.getallocatedblocks() - before
    finally:
        gc.enable()
    # CPython 3.11 and 3.12 never reuse a freed 20-item tuple, so up to three
    # blocks per 20-token sentence (150 of them) stay in that size's stock
    assert growth < 600


def test_sidecar_parsing():
    text = "# comment\ns1\t1\tLOC\tNNP\ns1\t2\t_\t_\ns2\t1\tPER\tNNG+JKS\n"
    entries = read_aux_sidecar(text)
    assert entries[0] == AuxAnnotation("s1", 1, "LOC", ("NNP",))
    assert entries[1] == AuxAnnotation("s1", 2, None, None)
    assert entries[2].ext_xpos == ("NNG", "JKS")
    with pytest.raises(CorrectionError, match="unknown XPOS tag"):
        read_aux_sidecar("s1\t1\t_\tZZZ\n")
    with pytest.raises(CorrectionError, match="^line 2: expected 4 columns, got 3$"):
        read_aux_sidecar("s1\t1\t_\t_\ns1\t2\tLOC\n")
    for token_id in ("0", "-3"):
        with pytest.raises(CorrectionError, match=f"line 2: token_id must be at least 1, got {token_id}"):
            read_aux_sidecar(f"s1\t1\t_\t_\ns1\t{token_id}\tLOC\t_\n")


def test_crlf_sidecar_and_log_strings_read_as_lf_strings_do():
    sidecar = "# comment\ns1\t1\tLOC\tNNP\ns1\t2\t_\t_\n"
    assert read_aux_sidecar(sidecar.replace("\n", "\r\n")) == read_aux_sidecar(sidecar)
    assert read_aux_sidecar("s1\t1\t_\tNNP\r\n")[0].ext_xpos == ("NNP",)
    log = log_header(2) + format_log_rows([CorrectionRecord("s1", 1, "UPOS", "ADV", "NOUN", "canonical-upos")])
    assert read_records(log.replace("\n", "\r\n")) == read_records(log)
    assert read_records(log.replace("\n", "\r\n"))[0][0].rule_id == "canonical-upos"


def test_a_sentence_without_a_sent_id_takes_no_other_sentences_aux_entries():
    words = [("서울", "서울", "NNG", "NOUN")]
    entry = AuxAnnotation("s9", 1, "LOC")
    for sent_id in (None, "s1"):
        sentence = make_sentence(words, sent_id=sent_id)
        corrected, records = correct_sentence(sentence, [entry])
        assert (corrected, records) == (sentence, [])


def test_a_sentence_without_a_sent_id_replays_no_other_sentences_records():
    words = [("서울", "서울", "NNG", "NOUN")]
    record = CorrectionRecord("s9", 1, "UPOS", "NOUN", "PROPN", "ner-propn")
    for sent_id in (None, "s1"):
        sentence = make_sentence(words, sent_id=sent_id)
        assert apply_records(sentence, [record]) == sentence
    unnamed = make_sentence(words)
    replayed = apply_records(unnamed, [record._replace(sent_id="")])
    assert replayed.tokens[0].upos == "PROPN"


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
        correct_sentence(enrich_sentence(s, pack), data.draw(_aux_entries(s)))[0]
        for s in sentences
    )
    reparsed = parse_conllu(written)
    for before, after in zip(sentences, reparsed, strict=True):
        assert (after.comments, after.extras) == (before.comments, before.extras)
        if not validate([before]):
            assert validate([after]) == []


@settings(max_examples=300, deadline=None)
@given(text=SEJONG_TREEBANK, data=st.data())
def test_log_written_and_read_back_replays_to_the_corrected_sentence(text, data):
    sentences = parse_conllu(text)
    for sentence in sentences:
        corrected, records = correct_sentence(sentence, data.draw(_aux_entries(sentence)))
        replayed, total = read_records(log_header(len(sentence.tokens)) + format_log_rows(records))
        assert total == len(sentence.tokens)
        assert all(r.original != r.corrected for r in records)
        assert apply_records(sentence, replayed) == corrected
        assert (corrected.comments, corrected.extras) == (sentence.comments, sentence.extras)


@st.composite
def _lenient_treebank(draw):
    """SEJONG_TREEBANK text with drawn LEMMA or XPOS cells set to "_" and
    drawn tags replaced by an unknown code, which only `lenient` accepts."""
    lines = draw(SEJONG_TREEBANK).split("\n")
    for i, line in enumerate(lines):
        cells = line.split("\t")
        if len(cells) != 10 or not cells[0].isdigit():
            continue
        damage = draw(st.sampled_from(["none", "lemma", "xpos", "tag"]))
        if damage == "lemma":
            cells[2] = "_"
        elif damage == "xpos":
            cells[4] = "_"
        elif damage == "tag":
            tags = cells[4].split("+")
            tags[draw(st.integers(0, len(tags) - 1))] = "ZZZ"
            cells[4] = "+".join(tags)
        lines[i] = "\t".join(cells)
    return "\n".join(lines)


@settings(max_examples=300, deadline=None)
@given(text=_lenient_treebank(), data=st.data())
def test_what_lenient_parsing_accepts_passes_enrich_and_correct(pack, text, data):
    for sentence in parse_conllu(text, lenient=True):
        enriched = enrich_sentence(sentence, pack)
        corrected, records = correct_sentence(enriched, data.draw(_aux_entries(enriched)))
        log = log_header(len(enriched.tokens)) + format_log_rows(records)
        assert apply_records(enriched, read_records(log)[0]) == corrected
        (reparsed,) = parse_conllu(serialize_conllu([corrected]), lenient=True)
        assert reparsed.tokens == corrected.tokens
        to_it_record(corrected)


@settings(max_examples=100, deadline=None)
@given(text=SEJONG_TREEBANK, data=st.data())
def test_a_token_every_stage_builds_behaves_like_one_its_constructor_builds(pack, text, data):
    for sentence in parse_conllu(text):
        enriched = enrich_sentence(sentence, pack)
        corrected, _ = correct_sentence(enriched, data.draw(_aux_entries(enriched)))
        for token in sentence.tokens + enriched.tokens + corrected.tokens:
            built = Token(**token._asdict())
            assert type(token) is Token
            assert token == built and built == token
            assert hash(token) == hash(built)
            assert repr(token) == repr(built)
            assert pickle.dumps(token) == pickle.dumps(built)
            assert type(pickle.loads(pickle.dumps(token))) is Token
