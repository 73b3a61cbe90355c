import copy
import pickle
import random
from dataclasses import replace

import pytest

from conftest import FIG1_CONLLU, make_sentence
from udmorph.conllu import (
    SEJONG_TAGS,
    UPOS_TAGS,
    ConlluError,
    FeatureBag,
    Sentence,
    Token,
    canonical_upos,
    parse_conllu,
    serialize_conllu,
    validate,
)


def test_parse_reference_sentence():
    sentences = parse_conllu(FIG1_CONLLU)
    assert len(sentences) == 1
    sentence = sentences[0]
    assert sentence.sent_id == "fixture-1"
    assert sentence.text == "학교 분위기나 경관이 굉장히 좋다."
    assert len(sentence.tokens) == 6

    token = sentence.tokens[1]
    assert token.id == 2
    assert token.form == "분위기나"
    assert token.morphemes == (("분위기", "NNG"), ("나", "JC"))
    assert token.upos == "NOUN"
    assert token.feats.get("Case") == ("Disj",)
    assert token.head == 1
    assert token.deprel == "flat"


def test_round_trip_is_byte_identical():
    assert serialize_conllu(parse_conllu(FIG1_CONLLU)) == FIG1_CONLLU


def test_column_count_error_names_line():
    bad = "# sent_id = x\n1\t학교\t학교\tNOUN\tNNG\t_\t0\troot\n\n"
    with pytest.raises(ConlluError, match=r"line 2.*10 tab-separated columns, got 8"):
        parse_conllu(bad)


def test_misalignment_is_a_parse_error():
    bad = "1\t분위기나\t분위기+나\tNOUN\tNNG\t_\t0\troot\t_\t_\n\n"
    with pytest.raises(ConlluError, match="morpheme/tag misalignment"):
        parse_conllu(bad)


def test_lenient_empty_lemma_has_no_morphemes():
    text = "1\t학교\t_\tNOUN\tNNG\t_\t0\troot\t_\t_\n\n"
    with pytest.raises(ConlluError, match="morpheme/tag misalignment"):
        parse_conllu(text)
    token = parse_conllu(text, lenient=True)[0].tokens[0]
    assert token.morphemes == ()
    mismatched = replace(token, lemma="분위기+나")
    with pytest.raises(ValueError, match="misalignment"):
        mismatched.morphemes


def test_unknown_tag_strict_vs_lenient():
    text = "1\t학교\t학교\tNOUN\tZZZ\t_\t0\troot\t_\t_\n\n"
    with pytest.raises(ConlluError, match="unknown XPOS tag 'ZZZ'"):
        parse_conllu(text)
    sentences = parse_conllu(text, lenient=True)
    assert sentences[0].tokens[0].xpos == "NA"


def test_non_contiguous_ids_rejected():
    bad = (
        "1\t학교\t학교\tNOUN\tNNG\t_\t0\troot\t_\t_\n"
        "3\t좋다\t좋+다\tADJ\tVA+EF\t_\t1\tdep\t_\t_\n\n"
    )
    with pytest.raises(ConlluError, match="non-contiguous token ids"):
        parse_conllu(bad)


def test_invalid_feats_syntax():
    bad = "1\t학교\t학교\tNOUN\tNNG\tCase\t0\troot\t_\t_\n\n"
    with pytest.raises(ConlluError, match="invalid FEATS"):
        parse_conllu(bad)


def test_multiword_ranges_pass_through():
    text = (
        "# sent_id = mwt\n"
        "1-2\t그런데도\t_\t_\t_\t_\t_\t_\t_\t_\n"
        "1\t그런데\t그런데\tADV\tMAJ\t_\t3\tadvmod\t_\t_\n"
        "2\t도\t도\tADV\tJX\t_\t1\tdep\t_\t_\n"
        "3\t갔다\t가+았+다\tVERB\tVV+EP+EF\t_\t0\troot\t_\t_\n"
        "\n"
    )
    sentences = parse_conllu(text)
    assert len(sentences[0].tokens) == 3
    assert sentences[0].extras == ((0, "1-2\t그런데도\t_\t_\t_\t_\t_\t_\t_\t_"),)
    assert serialize_conllu(sentences) == text


def test_feats_canonical_ordering():
    bag = FeatureBag({"Mood": ["Ind"], "Case": ["Nom"]})
    assert bag.to_conllu() == "Case=Nom|Mood=Ind"
    # case-insensitive key order: Number before NumType
    bag = FeatureBag({"NumType": ["Card"], "Number": ["Plur"]})
    assert bag.to_conllu() == "Number=Plur|NumType=Card"


def test_feats_empty_and_multivalue():
    assert FeatureBag().to_conllu() == "_"
    bag = FeatureBag({"Mood": ["CndPot", "Cnd"]})
    assert bag.to_conllu() == "Mood=Cnd,CndPot"
    assert FeatureBag.from_conllu("Mood=Cnd,CndPot") == bag


def test_feats_round_trip_random_bags():
    rng = random.Random(13)
    keys = ["Case", "Mood", "Tense", "Person[psor]", "VerbForm", "Number"]
    values = ["Nom", "Acc", "Ind", "Cnd", "1", "2", "Plur", "Fin", "seo"]
    for _ in range(200):
        entries = {}
        for key in rng.sample(keys, rng.randint(0, len(keys))):
            entries[key] = [rng.choice(values) for _ in range(rng.randint(1, 3))]
        bag = FeatureBag(entries)
        text = bag.to_conllu()
        assert FeatureBag.from_conllu(text) == bag
        assert FeatureBag.from_conllu(text).to_conllu() == text


def test_feature_bag_copies_and_pickles():
    bag = FeatureBag({"Case": ["Nom"], "Mood": ["Cnd", "Pot"]})
    assert copy.copy(bag) == bag
    assert copy.deepcopy(bag) == bag
    assert pickle.loads(pickle.dumps(bag)) == bag


def test_validate_reference_sentence_is_clean():
    assert validate(parse_conllu(FIG1_CONLLU)) == []


def test_validate_multiple_roots():
    sentence = make_sentence(
        [("하나", "하나", "NR", "NUM"), ("둘", "둘", "NR", "NUM")],
        heads=[0, 0],
        deprels=["root", "root"],
    )
    diagnostics = validate([sentence])
    assert any("multiple roots" in d.message for d in diagnostics)


def test_validate_misaligned_token():
    token = Token(id=1, form="분위기나", lemma="분위기+나", xpos="NNG", upos="NOUN", head=0, deprel="root")
    diagnostics = validate([Sentence(tokens=(token,))])
    assert any(d.rule == "morph-alignment" for d in diagnostics)


def test_validate_root_deprel_consistency():
    sentence = make_sentence(
        [("학교", "학교", "NNG", "NOUN"), ("좋다", "좋+다", "VA+EF", "ADJ")],
        heads=[0, 2],
        deprels=["nsubj", "root"],
    )
    rules_hit = {d.rule for d in validate([sentence])}
    assert "root-deprel" in rules_hit
    assert "head-cycle" in rules_hit  # token 2 heads itself


def test_validate_head_range():
    sentence = make_sentence([("학교", "학교", "NNG", "NOUN")], heads=[9], deprels=["dep"])
    assert any(d.rule == "head-range" for d in validate([sentence]))


def test_canonical_upos_folds_derivational_suffixes():
    probe = [
        ("가격+에", "NNG+JKB", "NOUN"),
        ("행복+하+ㄴ", "XR+XSA+ETM", "ADJ"),
        ("민주+화+되+ㄴ", "XR+XSN+XSV+ETM", "VERB"),
        ("실수+하+ㄴ다", "NNG+XSV+EF", "VERB"),
        ("굉장히", "MAG", "ADV"),
        (".", "SF", "PUNCT"),
    ]
    for lemma, xpos, expected in probe:
        token = Token(id=1, form="x", lemma=lemma, xpos=xpos, upos="X", head=0, deprel="root")
        assert canonical_upos(token.morphemes) == expected


def test_canonical_map_covers_every_head_capable_tag():
    functional = {
        "JKS", "JKC", "JKG", "JKO", "JKB", "JKV", "JKQ", "JX", "JC",
        "EP", "EF", "EC", "ETN", "ETM", "XPN", "NA",
    }
    for tag in sorted(SEJONG_TAGS - functional):
        token = Token(id=1, form="x", lemma="x", xpos=tag, upos="X", head=0, deprel="root")
        assert canonical_upos(token.morphemes) in UPOS_TAGS, tag


def test_literal_plus_token():
    text = "1\t+\t+\tSYM\tSW\t_\t0\troot\t_\t_\n\n"
    sentences = parse_conllu(text)
    assert sentences[0].tokens[0].morphemes == (("+", "SW"),)
    assert serialize_conllu(sentences) == text
