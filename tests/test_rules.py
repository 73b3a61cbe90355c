import copy
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FAMILY_FIXTURES, HANGUL, SEGMENT_CHARS, SEJONG_TREEBANK, make_sentence
from udmorph import conllu
from udmorph.conllu import MEMO_SIZE, FeatureBag, Token, parse_conllu, serialize_conllu, validate
from udmorph.corrections import correct_sentence
from udmorph.rules import (
    PACK_HEADER,
    MorphPattern,
    RulePack,
    RulePackError,
    assign_features,
    enrich_sentence,
    load_default_pack,
    load_rule_pack,
)


def _token(form, lemma, xpos, upos="X"):
    return Token(id=1, form=form, lemma=lemma, xpos=xpos, upos=upos, head=0, deprel="root")


def _with_rules(pack, rules):
    """A copy of `pack` holding `rules`, with empty memos."""
    return RulePack(pack.language, tuple(rules), pack.functional_words, pack.conjunctive_adverbs)


def _ending(pack, lemma, xpos):
    """The ending transcription the pack resolves for a word shape."""
    return pack.verdict(_token(lemma.replace("+", ""), lemma, xpos).morphemes).ending


def _features_of(pack, words, index=0):
    sentence = make_sentence(words)
    return assign_features(sentence, pack).tokens[index].feats


# ---------------------------------------------------------------- pack loading

def test_shipped_pack_loads_with_enough_rules(pack):
    assert len(pack.rules) >= 40
    families = {key for rule in pack.rules for key, _ in rule.emits}
    assert families == {
        "Aspect", "Case", "Evident", "Mood", "NumType", "Number", "Person",
        "Person[psor]", "Polite", "PronType", "Tense", "VerbForm", "Voice",
    }


def test_shipped_pack_functional_minimum(pack):
    assert {"더", "또", "다시"} <= pack.functional_words["ADV"]
    assert {"그", "이", "한"} <= pack.functional_words["DET"]


def test_a_language_without_a_packaged_pack_is_an_os_error():
    with pytest.raises(OSError):
        load_default_pack("xx")


def test_empty_pack_is_an_error():
    with pytest.raises(RulePackError, match="no rules"):
        load_rule_pack(PACK_HEADER + "\nlanguage ko\n")


def test_missing_header_is_an_error():
    with pytest.raises(RulePackError, match="missing header"):
        load_rule_pack("language ko\n")


def test_duplicate_pattern_and_priority_names_both_rules():
    text = (
        f"{PACK_HEADER}\n"
        "rule a 10 tag=JKS surface=이 => Case=Nom\n"
        "rule b 10 tag=JKS surface=이 => Case=Acc\n"
    )
    with pytest.raises(RulePackError, match="'a' and 'b'"):
        load_rule_pack(text)


def test_unknown_feature_key_rejected():
    text = f"{PACK_HEADER}\nrule a 10 tag=JKS => Gender=Masc\n"
    with pytest.raises(RulePackError, match="unknown feature key 'Gender'"):
        load_rule_pack(text)


@pytest.mark.parametrize(
    "line", ["rule a 10 tag=EC => Case=daga-", "voice 먹+히 Pass|Cau"], ids=["rule", "voice"]
)
def test_emitted_value_invalid_in_feats_rejected(line):
    text = f"{PACK_HEADER}\nlanguage ko\n{line}\n"
    with pytest.raises(RulePackError, match="line 3: feature value .* is not valid in FEATS"):
        load_rule_pack(text)


@pytest.mark.parametrize(
    "line",
    [
        "rule a 1 tag=EC surface=고| => Mood=Des",
        "rule a 1 tag=EC prev=|가/VV => Mood=Des",
        "rule a 1 tag=EC surface=고 next=싶/VX,/VV => Mood=Des",
        "voice 먹+ Pass",
        "voice +히 Pass",
    ],
    ids=["surface", "prev", "next", "voice-suffix", "voice-stem"],
)
def test_empty_surface_rejected(line):
    text = f"{PACK_HEADER}\nlanguage ko\n{line}\n"
    with pytest.raises(RulePackError, match="^line 3: .*empty"):
        load_rule_pack(text)


def test_unknown_tag_code_rejected():
    text = f"{PACK_HEADER}\nrule a 10 tag=QQQ => Case=Nom\n"
    with pytest.raises(RulePackError, match="unknown tag code 'QQQ'"):
        load_rule_pack(text)


# ---------------------------------------------------------- feature assignment

def test_reference_tokens(pack):
    assert _features_of(pack, [("분위기나", "분위기+나", "NNG+JC", "NOUN")]) == FeatureBag({"Case": ["Disj"]})
    assert _features_of(pack, [("경관이", "경관+이", "NNG+JKS", "NOUN")]) == FeatureBag({"Case": ["Nom"]})
    assert _features_of(pack, [("좋다", "좋+다", "VA+EF", "ADJ")]) == FeatureBag({"Mood": ["Ind"]})
    assert _features_of(pack, [("학교", "학교", "NNG", "NOUN")]) == FeatureBag()


def test_morpheme_features_compose(pack):
    feats = _features_of(pack, [("먹었다", "먹+었+다", "VV+EP+EF", "VERB")])
    assert feats == FeatureBag({"Tense": ["Past"], "Mood": ["Ind"]})


def test_periphrastic_pass_adds_features(pack):
    words = [("가고", "가+고", "VV+EC", "VERB"), ("싶다", "싶+다", "VX+EF", "AUX")]
    feats = _features_of(pack, words, index=0)
    assert feats.get("Mood") == ("Des",)
    assert feats.get("VerbForm") == ("Conv",)


def test_plural_suffix(pack):
    feats = _features_of(pack, [("학생들", "학생+들", "NNG+XSN", "NOUN")])
    assert feats == FeatureBag({"Number": ["Plur"]})


def test_lookahead_window_is_two_words(pack):
    near = [
        ("가고", "가+고", "VV+EC", "VERB"),
        ("정말", "정말", "MAG", "ADV"),
        ("싶다", "싶+다", "VX+EF", "AUX"),
    ]
    far = [
        ("가고", "가+고", "VV+EC", "VERB"),
        ("정말", "정말", "MAG", "ADV"),
        ("정말", "정말", "MAG", "ADV"),
        ("싶다", "싶+다", "VX+EF", "AUX"),
    ]
    assert _features_of(pack, near, index=0).get("Mood") == ("Des",)
    assert _features_of(pack, far, index=0).get("Mood") == ()


@pytest.mark.parametrize("label,words,index,key,value", FAMILY_FIXTURES)
def test_family_fixture(pack, label, words, index, key, value):
    sentence = make_sentence(words)
    enriched = enrich_sentence(sentence, pack)
    assert value in enriched.tokens[index].feats.get(key), label


def test_assignment_replaces_gold_features(pack):
    token = Token(
        id=1, form="학교", lemma="학교", xpos="NNG", upos="NOUN",
        feats=FeatureBag({"Case": ["Acc"]}), head=0, deprel="root",
    )
    sentence = make_sentence([("학교", "학교", "NNG", "NOUN")])
    sentence = sentence._replace(tokens=(token,))
    assert assign_features(sentence, pack).tokens[0].feats == FeatureBag()


def test_assignment_is_idempotent(pack):
    for _, words, _, _, _ in FAMILY_FIXTURES:
        sentence = make_sentence(words)
        once = assign_features(sentence, pack)
        assert assign_features(once, pack) == once


def test_disabling_context_pass_never_removes_internal_output(pack):
    internal_only = _with_rules(pack, (r for r in pack.rules if not r.context))
    for _, words, _, _, _ in FAMILY_FIXTURES:
        sentence = make_sentence(words)
        partial = assign_features(sentence, internal_only)
        full = assign_features(sentence, pack)
        for token_partial, token_full in zip(partial.tokens, full.tokens):
            for key, values in token_partial.feats.items():
                assert set(values) <= set(token_full.feats.get(key))


def _reference_context_matches(rule, tokens, index):
    window = [t.morphemes[0] for t in tokens[index + 1 : index + 3] if t.morphemes]
    if len(rule.context) == 1:
        return any(rule.context[0].matches(m) for m in window)
    return len(window) == 2 and all(p.matches(m) for p, m in zip(rule.context, window))


def _reference_resolve(fired):
    winners = {}
    for rule in sorted(fired, key=lambda r: (-r.priority, r.id)):
        for key, _ in rule.emits:
            winners.setdefault(key, rule)
    return {key: tuple(v for k, v in rule.emits if k == key) for key, rule in winners.items()}


def _reference_feats(sentence, pack):
    """Two scans per token, each pass sorting its fired rules by (-priority, id)."""
    bags = []
    for index, token in enumerate(sentence.tokens):
        morphemes = token.morphemes
        internal = [r for r in pack.rules if not r.context and r.matches_word(morphemes)]
        bag = {k: set(v) for k, v in _reference_resolve(internal).items()}
        context = [
            r
            for r in pack.rules
            if r.context
            and r.matches_word(morphemes)
            and _reference_context_matches(r, sentence.tokens, index)
        ]
        for key, values in _reference_resolve(context).items():
            bag.setdefault(key, set()).update(values)
        bags.append(FeatureBag(bag))
    return bags


def _pack_sentences(pack):
    """1-4 words built from the pack's own surfaces and tags.

    A word holds 1-3 pieces: the prev and anchor morphemes of a rule, a
    morpheme a lookahead slot accepts, or any pack surface with any pack tag.
    A lookahead rule's firing word may be followed by one word per slot that
    starts with a morpheme the slot accepts."""
    slots = [p for rule in pack.rules for p in rule.context]
    patterns = [p for rule in pack.rules for p in (rule.prev, *rule.context) if p is not None]
    patterns += [MorphPattern(rule.surfaces, rule.tags) for rule in pack.rules]
    surfaces = sorted({s for p in patterns for s in p.surfaces or ()})
    tags = sorted({t for p in patterns for t in p.tags or ()})

    def morpheme(pattern):
        return st.tuples(
            st.sampled_from(sorted(pattern.surfaces or surfaces)),
            st.sampled_from(sorted(pattern.tags or tags)),
        )

    def firing(rule):
        anchor = morpheme(MorphPattern(rule.surfaces, rule.tags))
        return st.tuples(morpheme(rule.prev), anchor) if rule.prev else st.tuples(anchor)

    def pieces(first, most):
        return st.tuples(first, st.lists(piece, max_size=most)).map(
            lambda fp: [*fp[0], *(m for p in fp[1] for m in p)]
        )

    piece = st.one_of(
        st.sampled_from(pack.rules).flatmap(firing),
        st.sampled_from(slots).flatmap(lambda p: st.tuples(morpheme(p))),
        st.tuples(morpheme(MorphPattern())),
    )
    word = pieces(piece, 2)

    def with_window(rule):
        window = [pieces(st.tuples(morpheme(slot)), 1) for slot in rule.context]
        return st.tuples(pieces(firing(rule), 1), *window).map(list)

    lookahead = st.sampled_from([r for r in pack.rules if r.context]).flatmap(with_window)
    chunk = st.one_of(word.map(lambda w: [w]), lookahead)
    return st.lists(chunk, min_size=1, max_size=3).map(lambda cs: [w for c in cs for w in c][:4])


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_single_pass_matches_two_scan_resolver_in_any_rule_order(pack, data):
    words = data.draw(_pack_sentences(pack))
    sentence = make_sentence(
        [
            ("".join(s for s, _ in w), "+".join(s for s, _ in w), "+".join(t for _, t in w), "X")
            for w in words
        ]
    )
    feats = [t.feats for t in assign_features(sentence, pack).tokens]
    assert feats == _reference_feats(sentence, pack)

    shuffled = _with_rules(pack, data.draw(st.permutations(pack.rules)))
    assert shuffled.rules == pack.rules
    assert [t.feats for t in assign_features(sentence, shuffled).tokens] == feats


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_candidates_are_the_rules_anchored_on_the_tags_in_pack_order(pack, data):
    subset = data.draw(st.lists(st.sampled_from(pack.rules), unique=True))
    anchors = sorted({tag for rule in pack.rules for tag in rule.tags} | {"SF", "NA"})
    tag_sets = st.frozensets(st.sampled_from(anchors), max_size=4)
    for candidate_pack in (pack, _with_rules(pack, subset)):
        # several tag sets per pack, each against a scan of the whole pack
        for tags in data.draw(st.lists(tag_sets, min_size=1, max_size=8)):
            expected = tuple(r for r in candidate_pack.rules if r.tags & tags)
            assert candidate_pack.candidates(tags) == expected


def _fresh(pack):
    """The same pack with empty memos."""
    return _with_rules(pack, pack.rules)


def _shapes(sentences):
    return {(t.lemma, t.xpos) for s in sentences for t in s.tokens}


def test_enrich_splits_each_word_shapes_morphemes_once(pack, monkeypatch):
    sentences = [make_sentence(words) for _, words, *_ in FAMILY_FIXTURES]
    # conj-adverb, xr-noun and complement-jkc retag one word each
    retagged = [
        ("그러나", "그러나", "MAG", "ADV"),
        ("깨끗한", "깨끗+하+ㄴ", "XR+XSA+ETM", "ADJ"),
        ("학생이", "학생+이", "NNG+JKS", "NOUN"),
        ("되다", "되+다", "VV+EF", "VERB"),
    ]
    sentences.append(make_sentence(retagged))
    calls = []

    def counting_split(raw):
        calls.append(raw)
        return split(raw)

    split = conllu._split_plus
    monkeypatch.setattr(conllu, "_split_plus", counting_split)
    conllu._morphemes.cache_clear()
    fresh = _fresh(pack)
    enriched = [enrich_sentence(sentence, fresh) for sentence in sentences]
    # one call for LEMMA and one for XPOS per distinct (LEMMA, XPOS) shape
    assert len(_shapes(sentences)) < sum(len(s.tokens) for s in sentences)
    assert len(calls) == 2 * len(_shapes(sentences))

    calls.clear()
    conllu._morphemes.cache_clear()
    corrected = [correct_sentence(sentence, [], fresh)[0] for sentence in enriched]
    assert len(_shapes(corrected) - _shapes(enriched)) == 3
    # each shape read is split once: the input's, and those a correction
    # writes for a later one to read
    split_shapes = list(zip(calls[::2], calls[1::2]))
    assert len(split_shapes) == len(set(split_shapes))
    assert _shapes(enriched) < set(split_shapes) < _shapes(enriched) | _shapes(corrected)


def test_verdict_memo_stays_within_its_bound(pack):
    # every sentence brings two new word shapes, MEMO_SIZE + 50 in all; the
    # lookahead rule on 가고 fires
    sentences = [
        make_sentence(
            [
                (f"학교{i}에", f"학교{i}+에", "NNG+JKB" if i % 2 else "NNP+JKB", "NOUN"),
                ("가고", "가+고", "VV+EC", "VERB"),
                ("싶다", f"싶+다{i}", "VX+EF", "AUX"),
            ]
        )
        for i in range((MEMO_SIZE + 50) // 2)
    ]
    expected = []
    for sentence in sentences:
        fresh = _fresh(pack)
        enriched = enrich_sentence(sentence, fresh)
        expected.append((enriched, correct_sentence(enriched, [], fresh)))
    assert expected[0][0].tokens[1].feats.get("Mood") == ("Des",)
    warm = _fresh(pack)
    # twice, so the second round resolves shapes the first one evicted
    for sentence, (enriched, corrected) in zip(sentences * 2, expected * 2):
        assert enrich_sentence(sentence, warm) == enriched
        assert correct_sentence(enriched, [], warm) == corrected
    for memo in (conllu._morphemes, warm.verdict, warm._winners_bag):
        assert memo.cache_info().currsize <= MEMO_SIZE
    assert warm.verdict.cache_info().currsize == MEMO_SIZE


def test_rule_pack_copies_and_pickles(pack):
    sentences = [make_sentence(words) for _, words, *_ in FAMILY_FIXTURES]
    warm = _fresh(pack)
    expected = [enrich_sentence(sentence, warm) for sentence in sentences]
    for twin in (copy.copy(warm), copy.deepcopy(warm), pickle.loads(pickle.dumps(warm))):
        assert twin == warm
        assert twin.verdict.cache_info().currsize == 0
        assert [enrich_sentence(sentence, twin) for sentence in sentences] == expected


def test_a_pack_cannot_swap_the_rules_its_memo_was_filled_from(pack):
    with pytest.raises(AttributeError, match="'rules'"):
        pack.rules = ()
    assert len(pack.rules) >= 40


def test_misaligned_token_fails_naming_itself(pack):
    sentence = make_sentence([("학교", "학교", "NNG", "NOUN")])
    misaligned = sentence._replace(tokens=(sentence.tokens[0].replace(lemma="학+교"),))
    for _ in range(2):
        with pytest.raises(ValueError, match=r"misalignment: 2 lemma.* in token 1 \('학교'\)"):
            enrich_sentence(misaligned, pack)


def test_replaced_pack_starts_with_an_empty_memo(pack):
    sentence = make_sentence([("가고", "가+고", "VV+EC", "VERB"), ("싶다", "싶+다", "VX+EF", "AUX")])
    assert enrich_sentence(sentence, pack).tokens[0].feats.get("Mood") == ("Des",)
    internal_only = _with_rules(pack, (r for r in pack.rules if not r.context))
    assert enrich_sentence(sentence, internal_only).tokens[0].feats.get("Mood") == ()


@settings(max_examples=300, deadline=None)
@given(text=SEJONG_TREEBANK)
def test_enrich_is_idempotent(pack, text):
    for sentence in parse_conllu(text):
        once = enrich_sentence(sentence, pack)
        assert enrich_sentence(once, pack) == once


@settings(max_examples=300, deadline=None)
@given(text=SEJONG_TREEBANK)
def test_enrich_with_a_warm_pack_equals_a_fresh_pack_per_sentence(pack, text):
    # `pack` is shared by every example, so its memos hold earlier examples' shapes
    for sentence in parse_conllu(text):
        assert enrich_sentence(sentence, pack) == enrich_sentence(sentence, _fresh(pack))


# ----------------------------------------------------- transcription and MISC

def _without_conv(pack):
    """The pack without its word-internal rule for -고, so 가고 has no pass-1 winner."""
    return _with_rules(pack, (r for r in pack.rules if r.id != "vform-conv"))


def test_transcribe_bare_ending(pack):
    assert _ending(pack, "가+서", "VV+EC") == FeatureBag({"Case": ["seo"]})
    assert _ending(_without_conv(pack), "먹+고", "VV+EC") == FeatureBag({"Case": ["go"]})


def test_transcribe_drops_characters_feats_cannot_hold(pack):
    assert _ending(pack, "가+다가-", "VV+EC") == FeatureBag({"Case": ["daga"]})
    assert _ending(pack, "가+…", "VV+EC") is None


def test_transcribe_suppressed_when_features_present(pack):
    # a word-internal winner leaves no transcription to resolve
    assert _ending(pack, "가+면", "VV+EC") is None
    # the lookahead rule's Mood=Des keeps the resolved Case=go out of FEATS
    no_conv = _without_conv(pack)
    assert _ending(no_conv, "가+고", "VV+EC") == FeatureBag({"Case": ["go"]})
    words = [("가고", "가+고", "VV+EC", "VERB"), ("싶다", "싶+다", "VX+EF", "AUX")]
    enriched = enrich_sentence(make_sentence(words), no_conv)
    assert enriched.tokens[0].feats == FeatureBag({"Mood": ["Des"]})
    alone = enrich_sentence(make_sentence(words[:1]), no_conv)
    assert alone.tokens[0].feats == FeatureBag({"Case": ["go"]})


def test_transcribe_requires_final_ec(pack):
    assert _ending(pack, "학교", "NNG") is None


def test_enrich_transcribes_unmatched_ending(pack):
    sentence = make_sentence(
        [("가서", "가+서", "VV+EC", "VERB"), ("좋다", "좋+다", "VA+EF", "ADJ")]
    )
    enriched = enrich_sentence(sentence, pack)
    assert enriched.tokens[0].feats == FeatureBag({"Case": ["seo"]})


_EC_SURFACES = st.text(st.one_of(HANGUL, SEGMENT_CHARS), min_size=1)


@settings(max_examples=200, deadline=None)
@given(surface=_EC_SURFACES)
def test_enrich_output_reads_back_validates_and_is_idempotent(pack, surface):
    text = (
        f"1\t가{surface}\t가+{surface}\tVERB\tVV+EC\t_\t2\tadvcl\t_\t_\n"
        "2\t좋다\t좋+다\tADJ\tVA+EF\t_\t0\troot\t_\t_\n\n"
    )
    assert validate(parse_conllu(text)) == []
    enriched = serialize_conllu(enrich_sentence(s, pack) for s in parse_conllu(text))
    reparsed = parse_conllu(enriched)
    assert validate(reparsed) == []
    assert serialize_conllu(enrich_sentence(s, pack) for s in reparsed) == enriched


def test_functional_words(pack):
    words = [
        ("그", "그", "MM", "DET"),
        ("더", "더", "MAG", "ADV"),
        ("굉장히", "굉장히", "MAG", "ADV"),
        # particles attached: no longer a bare functional word
        ("그는", "그+는", "NP+JX", "PRON"),
    ]
    enriched = enrich_sentence(make_sentence(words), pack)
    assert [t.misc for t in enriched.tokens] == ["Functional=Yes", "Functional=Yes", "_", "_"]


def test_enrich_sets_functional_misc_flag_once(pack):
    sentence = make_sentence([("더", "더", "MAG", "ADV"), ("좋다", "좋+다", "VA+EF", "ADJ")])
    once = enrich_sentence(sentence, pack)
    assert once.tokens[0].misc == "Functional=Yes"
    twice = enrich_sentence(once, pack)
    assert twice == once
