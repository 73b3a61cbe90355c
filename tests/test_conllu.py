import copy
import io
import pickle
import random
import re
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import BUILT_SENTENCES, FIG1_CONLLU, SEJONG_TREEBANK, make_sentence
from test_equivalence import _old_token_columns
from udmorph import conllu
from udmorph.conllu import (
    MEMO_SIZE,
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


@settings(max_examples=300, deadline=None)
@given(text=SEJONG_TREEBANK)
def test_parse_then_serialize_is_the_identity(text):
    assert serialize_conllu(parse_conllu(text)) == text


@settings(max_examples=100, deadline=None)
@given(text=SEJONG_TREEBANK)
def test_a_last_sentence_without_its_closing_blank_line_parses_as_with_it(text):
    expected = parse_conllu(text)
    for end in ("", "\n"):
        assert parse_conllu(text.rstrip("\n") + end) == expected


@pytest.mark.parametrize("end", ["\n", ""], ids=["newline", "no-newline"])
def test_a_trailing_block_of_comments_alone_is_a_sentence_without_token_lines(tmp_path, capsys, end):
    from udmorph.cli import main

    text = FIG1_CONLLU + "# sent_id = orphan\n# text = 없음" + end
    message = f"line {len(text.splitlines()) + 1}: sentence without token lines"
    with pytest.raises(ConlluError, match=f"^{message}$"):
        list(conllu.iter_sentences(text))
    path = tmp_path / "in.conllu"
    path.write_text(text, encoding="utf-8")
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr().err == f"udmorph validate: {path}: {message}\n"


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
    mismatched = token._replace(lemma="분위기+나")
    with pytest.raises(ValueError, match="misalignment"):
        mismatched.morphemes


def test_morphemes_follow_replace_after_first_read():
    token = parse_conllu(FIG1_CONLLU)[0].tokens[1]
    assert token.morphemes == (("분위기", "NNG"), ("나", "JC"))
    assert token.morphemes is token.morphemes
    retagged = token._replace(xpos="NNG+JX")
    assert retagged.morphemes == (("분위기", "NNG"), ("나", "JX"))
    relemmatized = token._replace(lemma="분위+기")
    assert relemmatized.morphemes == (("분위", "NNG"), ("기", "JC"))
    assert token.morphemes == (("분위기", "NNG"), ("나", "JC"))
    # every read of a misaligned token fails, naming the token
    for _ in range(2):
        with pytest.raises(ValueError, match=r"misalignment: 3 lemma segment.* in token 2 \('분위기나'\)"):
            token._replace(lemma="분+위기+나").morphemes


@pytest.mark.parametrize("read_first", [False, True])
def test_token_copies_and_pickles(read_first):
    token = parse_conllu(FIG1_CONLLU)[0].tokens[1]
    if read_first:
        token.morphemes
    for twin in (copy.copy(token), copy.deepcopy(token), pickle.loads(pickle.dumps(token))):
        assert twin == token
        assert twin.morphemes == token.morphemes == (("분위기", "NNG"), ("나", "JC"))


@settings(max_examples=100, deadline=None)
@given(text=SEJONG_TREEBANK)
def test_a_parsed_token_behaves_like_one_its_constructor_builds(text):
    for sentence in parse_conllu(text):
        for token in sentence.tokens:
            built = Token(**token._asdict())
            assert type(token) is Token
            assert token == built and built == token
            assert hash(token) == hash(built)
            assert repr(token) == repr(built)
            assert pickle.dumps(token) == pickle.dumps(built)
            assert pickle.loads(pickle.dumps(token)) == built
            for changes in ({}, {"upos": "X"}, {"lemma": "가", "xpos": "NNG", "head": None}):
                twin = Token(**{**built._asdict(), **changes})
                for copied in (built._replace(**changes), token._replace(**changes)):
                    assert copied == twin
                    assert list(copied._asdict().items()) == list(twin._asdict().items())
                    assert pickle.dumps(copied) == pickle.dumps(twin)


def test_token_replace_copies_and_rejects_an_unknown_field():
    token = parse_conllu(FIG1_CONLLU)[0].tokens[1]
    copied = token._replace(xpos="NNG+JX")
    assert copied is not token and copied.morphemes == (("분위기", "NNG"), ("나", "JX"))
    assert token.xpos == "NNG+JC"
    with pytest.raises(ValueError, match="'pos'"):
        token._replace(pos="X")
    with pytest.raises(ValueError, match="'pos'"):
        token._replace(upos="X", pos="X")


@pytest.mark.parametrize("field", Token._fields)
def test_a_token_field_cannot_be_assigned_or_deleted(field):
    token = parse_conllu(FIG1_CONLLU)[0].tokens[1]
    before = token._asdict()
    with pytest.raises(AttributeError):
        setattr(token, field, None)
    with pytest.raises(AttributeError):
        delattr(token, field)
    with pytest.raises(AttributeError):
        token.pos = "X"
    assert token._asdict() == before


def test_unknown_tag_strict_vs_lenient():
    text = "1\t학교\t학교\tNOUN\tZZZ\t_\t0\troot\t_\t_\n\n"
    with pytest.raises(ConlluError, match="unknown XPOS tag 'ZZZ'"):
        parse_conllu(text)
    sentences = parse_conllu(text, lenient=True)
    assert sentences[0].tokens[0].xpos == "NA"


def test_lenient_unknown_tag_is_logged_once_with_its_count(capsys):
    text = (
        "1\t학교\t학교\tNOUN\tZZZ\t_\t0\troot\t_\t_\n"
        "2\t분위기나\t분위기+나\tNOUN\tZZZ+JC\t_\t1\tflat\t_\t_\n"
        "3\t좋다\t좋+다\tADJ\tZZZ+EF\t_\t1\tdep\t_\t_\n\n"
    )
    sentences = parse_conllu(text, lenient=True)
    assert [t.xpos for t in sentences[0].tokens] == ["NA", "NA+JC", "NA+EF"]
    warnings = capsys.readouterr().err
    assert warnings == "WARNING: unknown XPOS tag 'ZZZ' mapped to NA 3 time(s), first on line 1\n"


def test_one_unknown_tag_shape_on_three_lines_is_counted_per_token(capsys):
    text = "# sent_id = a\n" + "".join(
        f"{i}\t학교\t학교\tNOUN\tZZZ\t_\t{0 if i == 1 else 1}\t{'root' if i == 1 else 'dep'}\t_\t_\n"
        for i in (1, 2, 3)
    ) + "\n"
    for _ in range(2):  # the second parse finds the shape in the memo
        sentences = parse_conllu(text, lenient=True)
        assert [t.xpos for t in sentences[0].tokens] == ["NA"] * 3
        warnings = capsys.readouterr().err
        assert warnings == "WARNING: unknown XPOS tag 'ZZZ' mapped to NA 3 time(s), first on line 2\n"


@pytest.mark.parametrize(
    "cells, message",
    [
        ("분위기나\t분위기+나\tNOUN\tNNG", "morpheme/tag misalignment: 2 lemma segment(s) vs 1 XPOS tag(s)"),
        ("학교\t학교\tNOUN\tZZZ", "unknown XPOS tag 'ZZZ'"),
    ],
    ids=["misaligned", "unknown-tag"],
)
def test_a_bad_word_shape_names_its_own_line_on_every_parse(cells, message):
    bad = f"1\t{cells}\t_\t0\troot\t_\t_\n"
    good = "1\t학교\t학교\tNOUN\tNNG\t_\t0\troot\t_\t_\n"
    for prefix, line in (("", 1), ("# sent_id = a\n", 2), (good + "\n", 3), ("", 1)):
        with pytest.raises(ConlluError, match=rf"^line {line}: {re.escape(message)}$"):
            parse_conllu(prefix + bad + "\n")


@pytest.mark.parametrize(
    "cells", ["학교\t학교\tNOUN\tZZZ", "학교\t_\tNOUN\tNNG", "학교\t학교\tNOUN\t_"],
    ids=["unknown-tag", "empty-lemma", "empty-xpos"],
)
def test_a_shape_first_parsed_leniently_still_fails_in_strict_mode(cells):
    text = f"1\t{cells}\t_\t0\troot\t_\t_\n\n"
    parse_conllu(text, lenient=True)
    with pytest.raises(ConlluError, match="^line 1: "):
        parse_conllu(text)
    parse_conllu(text, lenient=True)


def _outcome(text, lenient):
    """Each token's field values, or the error parsing raised."""
    try:
        return [[t._asdict() for t in s.tokens] for s in parse_conllu(text, lenient=lenient)]
    except ConlluError as error:
        return str(error)


@settings(max_examples=150, deadline=None)
@given(text=SEJONG_TREEBANK, lenient=st.booleans(), unknown=st.sampled_from(["", "NNG", "EF"]))
def test_parse_is_the_same_with_the_shape_memo_warm_or_cleared(text, lenient, unknown):
    if unknown:  # an unknown tag: strict parsing fails, lenient maps it to NA
        text = text.replace(unknown, "ZZZ")
    conllu._token_cells.cache_clear()
    cold = _outcome(text, lenient)
    _outcome(text, not lenient)  # warm the memo in the other mode too
    assert _outcome(text, lenient) == cold


def test_parse_checks_each_word_shape_once(monkeypatch):
    shapes = [("학교", "NNG"), ("분위기+나", "NNG+JC"), ("좋+다", "VA+EF"), ("_", "_")]
    lines = []
    for i in range(60):
        lemma, xpos = shapes[i % len(shapes)]
        lines.append(f"{i % 5 + 1}\tx\t{lemma}\tX\t{xpos}\t_\t_\t_\t_\t_\n")
        if i % 5 == 4:
            lines.append("\n")
    calls = []
    split_plus = conllu._split_plus
    monkeypatch.setattr(conllu, "_split_plus", lambda raw: calls.append(raw) or split_plus(raw))
    conllu._token_cells.cache_clear()
    sentences = parse_conllu("".join(lines), lenient=True)
    assert sum(len(s.tokens) for s in sentences) == 60
    assert len(calls) <= 2 * len(shapes)


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
    with pytest.raises(ConlluError, match="^line 1: invalid FEATS key: '1Case'$"):
        parse_conllu(bad.replace("\tCase\t", "\t1Case=Nom\t"))


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


def _line_by_line(sentences):
    """The writer `write_conllu` replaced: one line at a time, each extra
    before the token at its index, an extra at `len(tokens)` last."""
    out = []
    for sentence in sentences:
        out.extend(line + "\n" for line in sentence.comments)
        extras = {}
        for index, raw in sentence.extras:
            extras.setdefault(index, []).append(raw)
        for i, token in enumerate(sentence.tokens):
            out.extend(raw + "\n" for raw in extras.get(i, ()))
            out.append("\t".join(_old_token_columns(token)) + "\n")
        out.extend(raw + "\n" for raw in extras.get(len(sentence.tokens), ()))
        out.append("\n")
    return "".join(out)


@settings(max_examples=300, deadline=None)
@given(sentences=st.lists(st.one_of(st.just(Sentence()), BUILT_SENTENCES), max_size=4))
def test_a_sentence_is_written_as_the_line_by_line_writer_wrote_it(sentences):
    assert serialize_conllu(sentences) == _line_by_line(sentences)


def test_each_sentence_is_written_in_one_call():
    class Sink:
        def __init__(self):
            self.writes = []

        def write(self, text):
            self.writes.append(text)

    first = Token(1, "학교", "학교", "NNG", "NOUN", head=0, deprel="root")
    second = Token(2, "가", "가", "JKS", "ADP", head=1, deprel="case")
    extras = ((2, "1.1\tb"), (0, "1-2\tab"), (0, "0.1\ta"))
    sink = Sink()
    conllu.write_conllu([Sentence(), Sentence(("# sent_id = a",), (first, second), extras)], sink)
    assert sink.writes == [
        "\n",
        "# sent_id = a\n"
        "1-2\tab\n"
        "0.1\ta\n"
        "1\t학교\t학교\tNOUN\tNNG\t_\t0\troot\t_\t_\n"
        "2\t가\t가\tADP\tJKS\t_\t1\tcase\t_\t_\n"
        "1.1\tb\n"
        "\n",
    ]


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
    with pytest.raises(AttributeError, match="FeatureBag is immutable"):
        bag._entries = ()


@pytest.mark.parametrize(
    "entries, well_formed",
    [({}, True), ({"Case": ["Nom"], "Mood": ["Cnd", "Pot"]}, True),
     ({"bad key": ["Nom"]}, False), ({"Case": ["no-good"]}, False)],
)
def test_a_bags_cached_feats_verdict_changes_nothing_else(entries, well_formed):
    bag = FeatureBag(entries)
    assert bag._verdict is well_formed
    # a bag pickles, compares, hashes and prints by its entries alone, and
    # a copy settles the same text and verdict again
    assert bag.__reduce__() == (FeatureBag, (dict(bag.items()),))
    for copied in (pickle.loads(pickle.dumps(bag)), copy.deepcopy(bag)):
        assert copied == bag and hash(copied) == hash(bag) and repr(copied) == repr(bag)
        assert copied._verdict is well_formed and copied.to_conllu() == bag.to_conllu()
        assert pickle.dumps(copied) == pickle.dumps(bag)


def test_equal_feats_cells_share_one_bag():
    text = (
        "1\t학교\t학교\tNOUN\tNNG\tCase=Nom\t2\tnsubj\t_\t_\n"
        "2\t경관이\t경관+이\tNOUN\tNNG+JKS\tCase=Nom\t0\troot\t_\t_\n\n"
    )
    first, second = parse_conllu(text)[0].tokens
    assert first.feats is second.feats
    assert FeatureBag.from_conllu("Case=Nom") is first.feats
    assert FeatureBag.from_conllu("_") is FeatureBag.from_conllu("_")


def test_shared_feature_bag_copies_and_pickles():
    shared = FeatureBag.from_conllu("Case=Nom|Mood=Cnd,Pot")
    for twin in (copy.copy(shared), copy.deepcopy(shared), pickle.loads(pickle.dumps(shared))):
        assert twin == shared
        assert twin.to_conllu() == "Case=Nom|Mood=Cnd,Pot"
    assert FeatureBag.from_conllu("Case=Nom|Mood=Cnd,Pot") is shared


def test_bad_feats_cell_names_each_line_it_appears_on():
    line = "1\t학교\t학교\tNOUN\tNNG\tCase\t0\troot\t_\t_\n"
    with pytest.raises(ConlluError, match=r"^line 1: invalid FEATS syntax: 'Case'$"):
        parse_conllu(line + "\n")
    with pytest.raises(ConlluError, match=r"^line 3: invalid FEATS syntax: 'Case'$"):
        parse_conllu("# sent_id = a\n# text = 학교\n" + line + "\n")
    with pytest.raises(ConlluError, match=r"^line 7: invalid FEATS value: 'N-m'$"):
        FeatureBag.from_conllu("Case=N-m", 7)
    with pytest.raises(ConlluError, match=r"^invalid FEATS value: 'N-m'$"):
        FeatureBag.from_conllu("Case=N-m")


def test_feats_memo_stays_within_its_size():
    cells = [f"Case=V{i}" for i in range(MEMO_SIZE + 50)]
    bags = [FeatureBag.from_conllu(cell) for cell in cells]
    assert conllu._parse_feats.cache_info().currsize <= MEMO_SIZE
    assert [bag.to_conllu() for bag in bags] == cells
    assert FeatureBag.from_conllu(cells[0]).to_conllu() == cells[0]


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


def _walker_head_cycles(sentence):
    """The per-token walk `validate` used before its cycle check was made
    linear: the reference for the head-cycle diagnostics."""
    sid = sentence.sent_id or "1"
    heads = {t.id: t.head for t in sentence.tokens}
    found = []
    for token in sentence.tokens:
        seen = set()
        node = token.id
        while node not in (0, None):
            if node in seen:
                found.append(f"[head-cycle] {sid}:{token.id}: head cycle through token {node}")
                break
            seen.add(node)
            node = heads.get(node)
    return found


def _head_cycles(sentence):
    return [str(d) for d in validate([sentence]) if d.rule == "head-cycle"]


def test_head_cycle_names_the_first_node_each_walk_repeats():
    # 1 -> 2 -> 3 -> 4 -> 5 -> 3 and 6 -> 4: two tails into the cycle 3, 4, 5
    sentence = make_sentence(
        [("학교", "학교", "NNG", "NOUN")] * 7, sent_id="t", heads=[2, 3, 4, 5, 3, 4, 0]
    )
    assert _head_cycles(sentence) == [
        "[head-cycle] t:1: head cycle through token 3",
        "[head-cycle] t:2: head cycle through token 3",
        "[head-cycle] t:3: head cycle through token 3",
        "[head-cycle] t:4: head cycle through token 4",
        "[head-cycle] t:5: head cycle through token 5",
        "[head-cycle] t:6: head cycle through token 4",
    ]
    assert _head_cycles(sentence) == _walker_head_cycles(sentence)


@st.composite
def _head_vectors(draw):
    n = draw(st.integers(1, 60))
    # ids 1..n, or any ids: repeated, out of order or 0
    ids = draw(
        st.one_of(
            st.just(list(range(1, n + 1))),
            st.lists(st.integers(0, n + 1), min_size=n, max_size=n),
        )
    )
    if draw(st.booleans()):
        # long tails: a head-final chain, some links then redrawn
        heads = [i + 2 for i in range(n - 1)] + [0]
        for i in draw(st.lists(st.integers(0, n - 1), max_size=4)):
            heads[i] = draw(st.integers(-1, n + 2))
    else:
        heads = draw(st.lists(st.one_of(st.none(), st.integers(-1, n + 2)), min_size=n, max_size=n))
    return ids, heads


@settings(max_examples=500, deadline=None)
@given(vector=_head_vectors())
def test_head_cycle_check_matches_the_per_token_walk(vector):
    ids, heads = vector
    sentence = Sentence(
        tokens=tuple(
            Token(id=i, form="x", lemma="x", xpos="NNG", upos="NOUN", head=h, deprel="dep")
            for i, h in zip(ids, heads)
        )
    )
    assert _head_cycles(sentence) == _walker_head_cycles(sentence)


def test_validate_head_range():
    sentence = make_sentence([("학교", "학교", "NNG", "NOUN")], heads=[9], deprels=["dep"])
    assert any(d.rule == "head-range" for d in validate([sentence]))


def test_validate_reports_a_negative_head_which_would_not_read_back():
    words = [("학교", "학교", "NNG", "NOUN"), ("좋다", "좋+다", "VA+EF", "ADJ")]
    sentence = make_sentence(words, sent_id="s", heads=[-1, 0])
    assert [str(d) for d in validate([sentence])] == ["[head-range] s:1: head -1 outside 0..2"]
    with pytest.raises(ConlluError, match="invalid HEAD value '-1'"):
        parse_conllu(serialize_conllu([sentence]))


def _clean_chains(count, tag, longest):
    """`count` clean head-final chains, each with a LEMMA and a DEPREL no
    other holds: the first `longest` of lengths 1 to `longest`, the rest of
    1 to 4 words."""
    for i in range(count):
        n = 1 + i % (longest if i < longest else 4)
        lemma, deprel = f"{tag}{i}", f"dep:{tag}{i}"
        yield Sentence(tokens=tuple([
            Token(k, "x", lemma, "NNG", "NOUN", head=(k + 1) % (n + 1), deprel="root" if k == n else deprel)
            for k in range(1, n + 1)
        ]))


def test_validate_holds_no_memory_per_shape_deprel_or_sentence_length():
    def peak(count, tag):
        """The traced peak of `validate` over new chains, above the start."""
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        assert validate(_clean_chains(count, tag, 600)) == []
        return tracemalloc.get_traced_memory()[1] - start

    tracemalloc.start()
    try:
        # one-word sentences fill the shape and DEPREL memos, traced, and
        # turn them over until their tables stop growing, so each new entry
        # from here on frees the one it evicts; no length past 1 is seen yet
        assert validate(_clean_chains(3 * MEMO_SIZE, "w", 1)) == []
        # a tuple of ids kept per length 1..600 would hold about 1.5 MB
        assert peak(20_000, "a") - peak(1, "b") <= 1 << 20
    finally:
        tracemalloc.stop()


def test_validate_checks_the_universal_part_of_each_deprel():
    words = [("학교", "학교", "NNG", "NOUN"), ("좋다", "좋+다", "VA+EF", "ADJ")]
    for deprel in ("nsubj", "nmod:poss", "acl:relcl"):
        assert validate([make_sentence(words, sent_id="s1", heads=[2, 0], deprels=[deprel, "root"])]) == []
    for deprel in ("subj", "poss:nmod", "Nsubj", "nsubj_pass"):
        diagnostics = validate([make_sentence(words, sent_id="s1", heads=[2, 0], deprels=[deprel, "root"])])
        assert [str(d) for d in diagnostics] == [f"[deprel-value] s1:1: invalid DEPREL {deprel!r}"]
    assert len(conllu.UD_RELATIONS) == 37


def _sentence_with_extras(*extras):
    token = Token(1, "학교", "학교", "NNG", "NOUN", head=0, deprel="root")
    return Sentence(("# sent_id = s",), (token,), extras)


def test_validate_reports_an_extra_line_outside_its_sentence():
    assert validate([_sentence_with_extras((0, "1-2\tab"), (1, "1.1\tb"))]) == []
    diagnostics = validate([_sentence_with_extras((5, "1-2\tab"), (0, "0.1\ta"), (-1, "x"))])
    assert [str(d) for d in diagnostics] == [
        "[extra-position] s: extra line at index 5 outside 0..1",
        "[extra-position] s: extra line at index -1 outside 0..1",
    ]


@pytest.mark.parametrize("index", [5, -1])
def test_an_extra_line_outside_its_sentence_is_not_written(index):
    good = _sentence_with_extras((1, "1.1\tb"))
    sink = io.StringIO()
    with pytest.raises(ConlluError, match=rf"^extra line at index {index} outside 0\.\.1: 'x'$"):
        conllu.write_conllu([good, _sentence_with_extras((0, "0.1\ta"), (index, "x"))], sink)
    assert sink.getvalue() == serialize_conllu([good])


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
    assert validate(sentences) == []


def test_every_bad_input_error_is_one_udmorph_error_that_names_its_line():
    from udmorph.conllu import ConlluError, UdmorphError
    from udmorph.corrections import CorrectionError
    from udmorph.evaluate import EvalError
    from udmorph.rules import RulePackError

    for error_class in (ConlluError, RulePackError, CorrectionError, EvalError):
        assert issubclass(error_class, UdmorphError)
        error = error_class("empty sent_id", line=3)
        assert (str(error), error.line) == ("line 3: empty sent_id", 3)
        assert (str(error_class("no rules")), error_class("no rules").line) == ("no rules", None)
    assert issubclass(UdmorphError, ValueError)


def test_a_crlf_string_parses_as_the_lf_string_does():
    text = "# sent_id = a\n1\t학교\t학교\tNOUN\tNNG\t_\t0\troot\t_\t_\n\n"
    (sentence,) = parse_conllu(text.replace("\n", "\r\n"))
    assert sentence == parse_conllu(text)[0]
    assert sentence.tokens[0].misc == "_"


@settings(max_examples=100, deadline=None)
@given(text=SEJONG_TREEBANK, lenient=st.booleans())
def test_crlf_text_parses_as_lf_text_does(text, lenient):
    assert parse_conllu(text.replace("\n", "\r\n"), lenient=lenient) == parse_conllu(text, lenient=lenient)


@pytest.mark.parametrize(
    "cells, message",
    [
        ("Case\t_", "invalid FEATS syntax: 'Case'"),
        ("Case=Nom\tx", "invalid HEAD value 'x'"),
        ("Case\tx", "invalid FEATS syntax: 'Case'"),
    ],
    ids=["feats", "head", "feats-before-head"],
)
def test_a_line_with_bad_feats_and_a_bad_head_reports_feats_first(cells, message):
    text = f"1\t학교\t학교\tNOUN\tNNG\t{cells}\troot\t_\t_\n\n"
    with pytest.raises(ConlluError, match=rf"^line 1: {re.escape(message)}$"):
        parse_conllu(text)


@settings(max_examples=50, deadline=None)
@given(text=SEJONG_TREEBANK)
def test_a_token_copied_with_new_feats_or_misc_is_the_one_replace_gives(text):
    bag = FeatureBag.from_conllu("Case=Nom|Number=Sing")
    for sentence in parse_conllu(text):
        for token in sentence.tokens:
            for copied, replaced in (
                (token.with_feats(bag), token._replace(feats=bag)),
                (token.with_misc("Functional=Yes"), token._replace(misc="Functional=Yes")),
            ):
                assert type(copied) is Token
                assert copied == replaced and copied._asdict() == replaced._asdict()
