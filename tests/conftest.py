"""Shared fixtures: the reference sentence, sentence builders, the
per-feature-family fixture table used by the rule and acceptance tests, and
hypothesis strategies for model output and for whole treebanks."""

import pytest
from hypothesis import strategies as st

from udmorph.conllu import SEJONG_TAGS, UPOS_TAGS, FeatureBag, Sentence, Token
from udmorph.rules import load_default_pack

FIG1_CONLLU = (
    "# sent_id = fixture-1\n"
    "# text = 학교 분위기나 경관이 굉장히 좋다.\n"
    "1\t학교\t학교\tNOUN\tNNG\t_\t5\tnsubj\t_\t_\n"
    "2\t분위기나\t분위기+나\tNOUN\tNNG+JC\tCase=Disj\t1\tflat\t_\t_\n"
    "3\t경관이\t경관+이\tNOUN\tNNG+JKS\tCase=Nom\t1\tconj\t_\t_\n"
    "4\t굉장히\t굉장히\tADV\tMAG\t_\t5\tadvmod\t_\t_\n"
    "5\t좋다\t좋+다\tADJ\tVA+EF\tMood=Ind\t0\troot\t_\t_\n"
    "6\t.\t.\tPUNCT\tSF\t_\t5\tpunct\t_\t_\n"
    "\n"
)

FIG1_FEATS = ["_", "Case=Disj", "Case=Nom", "_", "Mood=Ind", "_"]

# Model output for property tests: arbitrary text, or lines that are either
# FIG1's gold rows or cells joined by tabs or spaces, often carrying FIG1's
# ids, heads and deprels, and numbers too long for int() to convert.
_LONG_NUMBERS = st.builds(
    lambda zeros, digit, count: "0" * zeros + digit * count,
    st.sampled_from([0, 1, 5000]),
    st.sampled_from("19"),
    st.sampled_from([1, 30, 5000]),
)
_CELLS = st.one_of(
    st.sampled_from(["0", "1", "2", "5", "6", "7", "01", "_", "root", "flat", "nsubj"]),
    st.text(max_size=3),
    _LONG_NUMBERS,
)
_ROW_LINES = st.one_of(
    st.sampled_from([line.rsplit("\t", 2)[0] for line in FIG1_CONLLU.splitlines()[2:-1]]),
    st.builds(str.join, st.sampled_from(["\t", " "]), st.lists(_CELLS, max_size=9)),
)
PREDICTION_TEXT = st.one_of(st.text(), st.lists(_ROW_LINES, max_size=8).map("\n".join))


@pytest.fixture(scope="session")
def pack():
    return load_default_pack()


def make_sentence(words, sent_id=None, heads=None, deprels=None):
    """Build a valid sentence from (form, lemma, xpos, upos) tuples.

    By default the last word is the root and every other word attaches to it.
    """
    n = len(words)
    if heads is None:
        heads = [n if i != n - 1 else 0 for i in range(n)]
    if deprels is None:
        deprels = ["dep" if h != 0 else "root" for h in heads]
    tokens = tuple(
        Token(
            id=i + 1,
            form=form,
            lemma=lemma,
            xpos=xpos,
            upos=upos,
            feats=FeatureBag(),
            head=heads[i],
            deprel=deprels[i],
        )
        for i, (form, lemma, xpos, upos) in enumerate(words)
    )
    comments = (f"# sent_id = {sent_id}",) if sent_id else ()
    return Sentence(comments=comments, tokens=tokens)


def blank_feats(sentence):
    return sentence._replace(tokens=tuple(t.replace(feats=FeatureBag()) for t in sentence.tokens))


# One fixture per feature-family table row: (label, words, index of the word
# that carries the feature, feature key, expected value).  Lexical-semantic
# evidentiality (firsthand / non-firsthand) is deliberately absent: it is not
# decidable from morpheme surfaces and the engine must not guess it.
FAMILY_FIXTURES = [
    ("Aspect=Hab", [("하곤", "하+곤", "VV+EC", "VERB"), ("했다", "하+았+다", "VX+EP+EF", "AUX")], 0, "Aspect", "Hab"),
    ("Aspect=Perf", [("먹어", "먹+어", "VV+EC", "VERB"), ("버렸다", "버리+었+다", "VX+EP+EF", "AUX")], 0, "Aspect", "Perf"),
    ("Aspect=Prog", [("하고", "하+고", "VV+EC", "VERB"), ("있다", "있+다", "VX+EF", "AUX")], 0, "Aspect", "Prog"),
    ("Case=Abl", [("학교에서", "학교+에서", "NNG+JKB", "NOUN"), ("왔다", "오+았+다", "VV+EP+EF", "VERB")], 0, "Case", "Abl"),
    ("Case=Abl-buteo", [("집부터", "집+부터", "NNG+JX", "NOUN"), ("청소했다", "청소+하+았+다", "NNG+XSV+EP+EF", "VERB")], 0, "Case", "Abl"),
    ("Case=Acc", [("밥을", "밥+을", "NNG+JKO", "NOUN"), ("먹었다", "먹+었+다", "VV+EP+EF", "VERB")], 0, "Case", "Acc"),
    ("Case=Conj", [("친구와", "친구+와", "NNG+JC", "NOUN"), ("갔다", "가+았+다", "VV+EP+EF", "VERB")], 0, "Case", "Conj"),
    ("Case=Dat", [("친구에게", "친구+에게", "NNG+JKB", "NOUN"), ("주었다", "주+었+다", "VV+EP+EF", "VERB")], 0, "Case", "Dat"),
    ("Case=Disj", [("분위기나", "분위기+나", "NNG+JC", "NOUN"), ("좋다", "좋+다", "VA+EF", "ADJ")], 0, "Case", "Disj"),
    ("Case=Gen", [("나라의", "나라+의", "NNG+JKG", "NOUN"), ("미래", "미래", "NNG", "NOUN")], 0, "Case", "Gen"),
    ("Case=Ins", [("기차로", "기차+로", "NNG+JKB", "NOUN"), ("갔다", "가+았+다", "VV+EP+EF", "VERB")], 0, "Case", "Ins"),
    ("Case=Loc", [("집에", "집+에", "NNG+JKB", "NOUN"), ("있다", "있+다", "VV+EF", "VERB")], 0, "Case", "Loc"),
    ("Case=Nom", [("경관이", "경관+이", "NNG+JKS", "NOUN"), ("좋다", "좋+다", "VA+EF", "ADJ")], 0, "Case", "Nom"),
    ("Case=Nom-topic", [("나는", "나+는", "NP+JX", "PRON"), ("간다", "가+ㄴ다", "VV+EF", "VERB")], 0, "Case", "Nom"),
    ("Evident=Infer", [("비가", "비+가", "NNG+JKS", "NOUN"), ("올", "오+ㄹ", "VV+ETM", "VERB"), ("것", "것", "NNB", "NOUN"), ("같다", "같+다", "VA+EF", "ADJ")], 1, "Evident", "Infer"),
    ("Evident=Rep", [("비가", "비+가", "NNG+JKS", "NOUN"), ("왔다고", "오+았+다고", "VV+EP+EC", "VERB"), ("해", "하+여", "VV+EF", "VERB")], 1, "Evident", "Rep"),
    ("Mood=Cnd", [("비가", "비+가", "NNG+JKS", "NOUN"), ("오면", "오+면", "VV+EC", "VERB"), ("갈게", "가+ㄹ게", "VV+EF", "VERB")], 1, "Mood", "Cnd"),
    ("Mood=CndGen", [("사람이면", "사람+이+면", "NNG+VCP+EC", "NOUN"), ("실수한다", "실수+하+ㄴ다", "NNG+XSV+EF", "VERB")], 0, "Mood", "CndGen"),
    ("Mood=CndPot", [("있으면", "있+으면", "VV+EC", "VERB"), ("도울", "돕+울", "VV+ETM", "VERB"), ("수", "수", "NNB", "NOUN"), ("있어", "있+어", "VX+EF", "AUX")], 0, "Mood", "CndPot"),
    ("Mood=CndGenPot", [("건강하면", "건강하+면", "VA+EC", "ADJ"), ("오래", "오래", "MAG", "ADV"), ("산다", "살+ㄴ다", "VV+EF", "VERB")], 0, "Mood", "CndGenPot"),
    ("Mood=Des", [("가고", "가+고", "VV+EC", "VERB"), ("싶다", "싶+다", "VX+EF", "AUX")], 0, "Mood", "Des"),
    ("Mood=Imp", [("조용히", "조용히", "MAG", "ADV"), ("해라", "하+여라", "VV+EF", "VERB")], 1, "Mood", "Imp"),
    ("Mood=Ind", [("학교에", "학교+에", "NNG+JKB", "NOUN"), ("간다", "가+ㄴ다", "VV+EF", "VERB")], 1, "Mood", "Ind"),
    ("Mood=Int", [("어디에", "어디+에", "NP+JKB", "PRON"), ("가니", "가+니", "VV+EF", "VERB")], 1, "Mood", "Int"),
    ("Mood=Nec", [("가야", "가+야", "VV+EC", "VERB"), ("한다", "하+ㄴ다", "VX+EF", "AUX")], 0, "Mood", "Nec"),
    ("Mood=Opt", [("행복하길", "행복하+기+ㄹ", "VA+ETN+JKO", "ADJ"), ("바란다", "바라+ㄴ다", "VV+EF", "VERB")], 0, "Mood", "Opt"),
    ("Mood=Pot", [("할", "하+ㄹ", "VV+ETM", "VERB"), ("수", "수", "NNB", "NOUN"), ("있다", "있+다", "VX+EF", "AUX")], 0, "Mood", "Pot"),
    ("NumType=Card", [("세", "세", "MM", "DET"), ("개", "개", "NNB", "NOUN")], 0, "NumType", "Card"),
    ("NumType=Card-nr", [("다섯", "다섯", "NR", "NUM"), ("명", "명", "NNB", "NOUN")], 0, "NumType", "Card"),
    ("Number=Plur", [("학생들", "학생+들", "NNG+XSN", "NOUN"), ("왔다", "오+았+다", "VV+EP+EF", "VERB")], 0, "Number", "Plur"),
    ("Person=1", [("나는", "나+는", "NP+JX", "PRON"), ("간다", "가+ㄴ다", "VV+EF", "VERB")], 0, "Person", "1"),
    ("Person=2", [("너는", "너+는", "NP+JX", "PRON"), ("간다", "가+ㄴ다", "VV+EF", "VERB")], 0, "Person", "2"),
    ("Person=3", [("그는", "그+는", "NP+JX", "PRON"), ("간다", "가+ㄴ다", "VV+EF", "VERB")], 0, "Person", "3"),
    ("Person[psor]=1", [("내", "내", "NP", "PRON"), ("책", "책", "NNG", "NOUN")], 0, "Person[psor]", "1"),
    ("Person[psor]=2", [("네", "네", "NP", "PRON"), ("가방", "가방", "NNG", "NOUN")], 0, "Person[psor]", "2"),
    ("Person[psor]=3", [("그의", "그+의", "NP+JKG", "PRON"), ("차", "차", "NNG", "NOUN")], 0, "Person[psor]", "3"),
    ("Polite=Elev", [("선생님께서", "선생님+께서", "NNG+JKS", "NOUN"), ("오십니다", "오+시+ㅂ니다", "VV+EP+EF", "VERB")], 1, "Polite", "Elev"),
    ("Polite=Form", [("갑니다", "가+ㅂ니다", "VV+EF", "VERB")], 0, "Polite", "Form"),
    ("Polite=Humb", [("드리겠습니다", "드리+겠+습니다", "VV+EP+EF", "VERB")], 0, "Polite", "Humb"),
    ("PronType=Art", [("그", "그", "MM", "DET"), ("책", "책", "NNG", "NOUN")], 0, "PronType", "Art"),
    ("PronType=Dem", [("이", "이", "MM", "DET"), ("사람", "사람", "NNG", "NOUN")], 0, "PronType", "Dem"),
    ("PronType=Ind", [("어떤", "어떤", "MM", "DET"), ("사람", "사람", "NNG", "NOUN")], 0, "PronType", "Ind"),
    ("PronType=Ind-np", [("아무도", "아무+도", "NP+JX", "PRON"), ("없다", "없+다", "VA+EF", "ADJ")], 0, "PronType", "Ind"),
    ("PronType=Int", [("누구", "누구", "NP", "PRON")], 0, "PronType", "Int"),
    ("PronType=Prs", [("나는", "나+는", "NP+JX", "PRON"), ("간다", "가+ㄴ다", "VV+EF", "VERB")], 0, "PronType", "Prs"),
    ("PronType=Rcp", [("서로", "서로", "NP", "PRON"), ("만났다", "만나+았+다", "VV+EP+EF", "VERB")], 0, "PronType", "Rcp"),
    ("Tense=Pres", [("먹는다", "먹+는다", "VV+EF", "VERB")], 0, "Tense", "Pres"),
    ("Tense=Past", [("먹었다", "먹+었+다", "VV+EP+EF", "VERB")], 0, "Tense", "Past"),
    ("VerbForm=Conv", [("먹고", "먹+고", "VV+EC", "VERB"), ("갔다", "가+았+다", "VV+EP+EF", "VERB")], 0, "VerbForm", "Conv"),
    ("VerbForm=Fin", [("먹는다", "먹+는다", "VV+EF", "VERB")], 0, "VerbForm", "Fin"),
    ("VerbForm=Part", [("먹은", "먹+은", "VV+ETM", "VERB"), ("밥", "밥", "NNG", "NOUN")], 0, "VerbForm", "Part"),
    ("VerbForm=Vnoun", [("먹기", "먹+기", "VV+ETN", "VERB"), ("싫다", "싫+다", "VA+EF", "ADJ")], 0, "VerbForm", "Vnoun"),
    ("Voice=Cau", [("먹였다", "먹+이+었+다", "VV+XSV+EP+EF", "VERB")], 0, "Voice", "Cau"),
    ("Voice=CauPass", [("보였다", "보+이+었+다", "VV+XSV+EP+EF", "VERB")], 0, "Voice", "CauPass"),
    ("Voice=Pass", [("먹혔다", "먹+히+었+다", "VV+XSV+EP+EF", "VERB")], 0, "Voice", "Pass"),
    ("Voice=Rcp", [("만났다", "만나+았+다", "VV+EP+EF", "VERB")], 0, "Voice", "Rcp"),
    ("Voice=Rfl", [("씻었다", "씻+었+다", "VV+EP+EF", "VERB")], 0, "Voice", "Rfl"),
]


# Any text a LEMMA segment can hold: no tab, '+' or line break.
SEGMENT_CHARS = st.characters(
    exclude_categories=("Cc", "Cs", "Zl", "Zp"), exclude_characters="+"
)
HANGUL = st.characters(min_codepoint=0xAC00, max_codepoint=0xD7A3)
# A lone "_" would read back as an empty LEMMA.
_SURFACES = st.text(st.one_of(HANGUL, SEGMENT_CHARS), min_size=1, max_size=4).filter(
    lambda s: s != "_"
)
_FORMS = st.text(st.one_of(HANGUL, SEGMENT_CHARS, st.just("+")), max_size=6)
_FIXTURE_WORDS = sorted({word for _, words, *_ in FAMILY_FIXTURES for word in words})
_ODD_WORDS = [
    ("+", "+", "SW", "SYM"),  # the literal plus
    ("1+2", "1+2", "SN+SN", "NUM"),
    ("가다가", "가+다가-", "VV+EC", "VERB"),  # non-hangul ending surface
    ("_", "_", "_", "X"),  # empty LEMMA and XPOS
    ("a++b", "a++b", "SL+SW+SL", "X"),  # an empty morpheme surface
]
_DEPRELS = ["dep", "nsubj", "obj", "advmod", "flat", "acl:relcl", "punct", "root", "_"]
_FEATS = st.dictionaries(
    st.sampled_from(["Case", "Mood", "Number", "NumType", "Person[psor]", "Tense"]),
    st.lists(st.sampled_from(["Nom", "Acc", "Ind", "Cnd", "Plur", "1", "seo"]), min_size=1, max_size=2),
    max_size=3,
).map(lambda entries: FeatureBag(entries).to_conllu())
_DEPS = st.sampled_from(["_", "2:nsubj", "0:root|3:dep", "한"])
_MISC = st.sampled_from(
    ["_", "SpaceAfter=No", "Functional=Yes", "Functional=No|SpaceAfter=No",
     "Functional=Yes|Functional=No", "a=b=c", "|", "", " ", "한국어"]
)
_COMMENTS = st.lists(
    st.sampled_from(["# sent_id = s1", "# sent_id = s2", "# sent_id =", "# text = 학교 a+b", "#", "# newpar"]),
    max_size=3,
)


@st.composite
def _random_word(draw):
    tags = draw(st.lists(st.sampled_from(sorted(SEJONG_TAGS)), min_size=1, max_size=4))
    surfaces = draw(st.lists(_SURFACES, min_size=len(tags), max_size=len(tags)))
    form = draw(st.one_of(st.just("".join(surfaces)), _FORMS))
    return form, "+".join(surfaces), "+".join(tags), draw(st.sampled_from(sorted(UPOS_TAGS)))


_WORDS = st.one_of(st.sampled_from(_FIXTURE_WORDS), st.sampled_from(_ODD_WORDS), _random_word())


@st.composite
def _sentence_block(draw):
    words = draw(st.lists(_WORDS, min_size=1, max_size=12))
    n = len(words)
    # a tree: each word but the first of a random order attaches to one
    # placed before it; then a few heads are overwritten with anything
    order = draw(st.permutations(range(n)))
    heads = [0] * n
    for k in range(1, n):
        heads[order[k]] = order[draw(st.integers(0, k - 1))] + 1
    head_cells = [str(h) for h in heads]
    for i in draw(st.lists(st.integers(0, n - 1), max_size=2)):
        head_cells[i] = draw(st.one_of(st.just("_"), st.integers(0, n + 2).map(str)))
    extras = {}
    for position in draw(st.lists(st.integers(0, n), max_size=3)):
        form = draw(_FORMS)
        extras.setdefault(position, []).append(
            draw(
                st.sampled_from([
                    f"{position + 1}-{position + 2}\t{form}\t_\t_\t_\t_\t_\t_\t_\t_",
                    f"{position}.1\t{form}\t{form}\t_\t_\t_\t_\t_\t{position}:dep\t_",
                ])
            )
        )
    lines = draw(_COMMENTS)
    for i, (form, lemma, xpos, upos) in enumerate(words):
        lines += extras.get(i, [])
        upos = draw(st.sampled_from([upos] * 8 + ["_", "Noun"]))
        deprel = "root" if head_cells[i] == "0" else draw(st.sampled_from(_DEPRELS))
        cells = (str(i + 1), form, lemma, upos, xpos, draw(_FEATS), head_cells[i], deprel,
                 draw(_DEPS), draw(_MISC))
        lines.append("\t".join(cells))
    lines += extras.get(n, [])
    return "".join(line + "\n" for line in lines) + "\n"


# CoNLL-U text that parses strictly, written as udmorph writes it (canonical
# FEATS, a blank line after each sentence): Sejong-tagged words from the
# fixtures, odd words and random ones (non-hangul surfaces, forms holding
# "+"), multiword ranges, empty nodes, odd MISC and comments, and heads that
# form a tree unless a few were overwritten with "_", 0 or any id up to n + 2.
SEJONG_TREEBANK = st.lists(_sentence_block(), min_size=1, max_size=3).map("".join)
