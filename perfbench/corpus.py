"""Seeded input generator for the benchmark workloads.

Every input is a pure function of (seed, scale): `random.Random` seeded with
a string uses a SHA-512 of it, so bytes do not depend on the interpreter's
hash seed.  The word list below is a frozen copy of the test fixtures
(`FAMILY_FIXTURES` and the FIG1 sentence in `tests/conftest.py`), kept here
so that later test edits cannot move the benchmark's baseline.

Known defects the data deliberately leaves out.  Each one aborts or
misaligns a whole run rather than slowing it, so tests guard them, not
throughput data:

- Ending surfaces that are not hangul (`가+다가-` / `VV+EC`): enrich
  romanizes them into FEATS values that its own `validate` rejects.  All
  EC surfaces below are hangul or compatibility jamo.
- Lenient `_` lemmas: a token with LEMMA `_` parses under `--lenient` and
  then crashes enrich and correct.  No input has an `_` lemma and no command
  runs with `--lenient`.
- Blank lines inside a prediction block, or a block with no lines at all:
  `eval` pairs blocks with gold sentences by position, so either one shifts
  the pairing or raises.  Every generated block keeps at least one row and
  has no blank line inside.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from decimal import ROUND_HALF_UP, Decimal

# (form, lemma, xpos, upos); one tuple of words per fixture sentence.
FIG1_WORDS = (
    ("학교", "학교", "NNG", "NOUN"),
    ("분위기나", "분위기+나", "NNG+JC", "NOUN"),
    ("경관이", "경관+이", "NNG+JKS", "NOUN"),
    ("굉장히", "굉장히", "MAG", "ADV"),
    ("좋다", "좋+다", "VA+EF", "ADJ"),
    (".", ".", "SF", "PUNCT"),
)

FAMILY_CHUNKS = (
    (("하곤", "하+곤", "VV+EC", "VERB"), ("했다", "하+았+다", "VX+EP+EF", "AUX")),
    (("먹어", "먹+어", "VV+EC", "VERB"), ("버렸다", "버리+었+다", "VX+EP+EF", "AUX")),
    (("하고", "하+고", "VV+EC", "VERB"), ("있다", "있+다", "VX+EF", "AUX")),
    (("학교에서", "학교+에서", "NNG+JKB", "NOUN"), ("왔다", "오+았+다", "VV+EP+EF", "VERB")),
    (("집부터", "집+부터", "NNG+JX", "NOUN"), ("청소했다", "청소+하+았+다", "NNG+XSV+EP+EF", "VERB")),
    (("밥을", "밥+을", "NNG+JKO", "NOUN"), ("먹었다", "먹+었+다", "VV+EP+EF", "VERB")),
    (("친구와", "친구+와", "NNG+JC", "NOUN"), ("갔다", "가+았+다", "VV+EP+EF", "VERB")),
    (("친구에게", "친구+에게", "NNG+JKB", "NOUN"), ("주었다", "주+었+다", "VV+EP+EF", "VERB")),
    (("분위기나", "분위기+나", "NNG+JC", "NOUN"), ("좋다", "좋+다", "VA+EF", "ADJ")),
    (("나라의", "나라+의", "NNG+JKG", "NOUN"), ("미래", "미래", "NNG", "NOUN")),
    (("기차로", "기차+로", "NNG+JKB", "NOUN"), ("갔다", "가+았+다", "VV+EP+EF", "VERB")),
    (("집에", "집+에", "NNG+JKB", "NOUN"), ("있다", "있+다", "VV+EF", "VERB")),
    (("경관이", "경관+이", "NNG+JKS", "NOUN"), ("좋다", "좋+다", "VA+EF", "ADJ")),
    (("나는", "나+는", "NP+JX", "PRON"), ("간다", "가+ㄴ다", "VV+EF", "VERB")),
    (("비가", "비+가", "NNG+JKS", "NOUN"), ("올", "오+ㄹ", "VV+ETM", "VERB"), ("것", "것", "NNB", "NOUN"), ("같다", "같+다", "VA+EF", "ADJ")),
    (("비가", "비+가", "NNG+JKS", "NOUN"), ("왔다고", "오+았+다고", "VV+EP+EC", "VERB"), ("해", "하+여", "VV+EF", "VERB")),
    (("비가", "비+가", "NNG+JKS", "NOUN"), ("오면", "오+면", "VV+EC", "VERB"), ("갈게", "가+ㄹ게", "VV+EF", "VERB")),
    (("사람이면", "사람+이+면", "NNG+VCP+EC", "NOUN"), ("실수한다", "실수+하+ㄴ다", "NNG+XSV+EF", "VERB")),
    (("있으면", "있+으면", "VV+EC", "VERB"), ("도울", "돕+울", "VV+ETM", "VERB"), ("수", "수", "NNB", "NOUN"), ("있어", "있+어", "VX+EF", "AUX")),
    (("건강하면", "건강하+면", "VA+EC", "ADJ"), ("오래", "오래", "MAG", "ADV"), ("산다", "살+ㄴ다", "VV+EF", "VERB")),
    (("가고", "가+고", "VV+EC", "VERB"), ("싶다", "싶+다", "VX+EF", "AUX")),
    (("조용히", "조용히", "MAG", "ADV"), ("해라", "하+여라", "VV+EF", "VERB")),
    (("학교에", "학교+에", "NNG+JKB", "NOUN"), ("간다", "가+ㄴ다", "VV+EF", "VERB")),
    (("어디에", "어디+에", "NP+JKB", "PRON"), ("가니", "가+니", "VV+EF", "VERB")),
    (("가야", "가+야", "VV+EC", "VERB"), ("한다", "하+ㄴ다", "VX+EF", "AUX")),
    (("행복하길", "행복하+기+ㄹ", "VA+ETN+JKO", "ADJ"), ("바란다", "바라+ㄴ다", "VV+EF", "VERB")),
    (("할", "하+ㄹ", "VV+ETM", "VERB"), ("수", "수", "NNB", "NOUN"), ("있다", "있+다", "VX+EF", "AUX")),
    (("세", "세", "MM", "DET"), ("개", "개", "NNB", "NOUN")),
    (("다섯", "다섯", "NR", "NUM"), ("명", "명", "NNB", "NOUN")),
    (("학생들", "학생+들", "NNG+XSN", "NOUN"), ("왔다", "오+았+다", "VV+EP+EF", "VERB")),
    (("나는", "나+는", "NP+JX", "PRON"), ("간다", "가+ㄴ다", "VV+EF", "VERB")),
    (("너는", "너+는", "NP+JX", "PRON"), ("간다", "가+ㄴ다", "VV+EF", "VERB")),
    (("그는", "그+는", "NP+JX", "PRON"), ("간다", "가+ㄴ다", "VV+EF", "VERB")),
    (("내", "내", "NP", "PRON"), ("책", "책", "NNG", "NOUN")),
    (("네", "네", "NP", "PRON"), ("가방", "가방", "NNG", "NOUN")),
    (("그의", "그+의", "NP+JKG", "PRON"), ("차", "차", "NNG", "NOUN")),
    (("선생님께서", "선생님+께서", "NNG+JKS", "NOUN"), ("오십니다", "오+시+ㅂ니다", "VV+EP+EF", "VERB")),
    (("갑니다", "가+ㅂ니다", "VV+EF", "VERB"),),
    (("드리겠습니다", "드리+겠+습니다", "VV+EP+EF", "VERB"),),
    (("그", "그", "MM", "DET"), ("책", "책", "NNG", "NOUN")),
    (("이", "이", "MM", "DET"), ("사람", "사람", "NNG", "NOUN")),
    (("어떤", "어떤", "MM", "DET"), ("사람", "사람", "NNG", "NOUN")),
    (("아무도", "아무+도", "NP+JX", "PRON"), ("없다", "없+다", "VA+EF", "ADJ")),
    (("누구", "누구", "NP", "PRON"),),
    (("나는", "나+는", "NP+JX", "PRON"), ("간다", "가+ㄴ다", "VV+EF", "VERB")),
    (("서로", "서로", "NP", "PRON"), ("만났다", "만나+았+다", "VV+EP+EF", "VERB")),
    (("먹는다", "먹+는다", "VV+EF", "VERB"),),
    (("먹었다", "먹+었+다", "VV+EP+EF", "VERB"),),
    (("먹고", "먹+고", "VV+EC", "VERB"), ("갔다", "가+았+다", "VV+EP+EF", "VERB")),
    (("먹는다", "먹+는다", "VV+EF", "VERB"),),
    (("먹은", "먹+은", "VV+ETM", "VERB"), ("밥", "밥", "NNG", "NOUN")),
    (("먹기", "먹+기", "VV+ETN", "VERB"), ("싫다", "싫+다", "VA+EF", "ADJ")),
    (("먹였다", "먹+이+었+다", "VV+XSV+EP+EF", "VERB"),),
    (("보였다", "보+이+었+다", "VV+XSV+EP+EF", "VERB"),),
    (("먹혔다", "먹+히+었+다", "VV+XSV+EP+EF", "VERB"),),
    (("만났다", "만나+았+다", "VV+EP+EF", "VERB"),),
    (("씻었다", "씻+었+다", "VV+EP+EF", "VERB"),),
)

# Fixture sentences are sampled whole, so the lookahead (periphrastic) rules
# see the word sequences they were written for.
CHUNKS = (FIG1_WORDS,) + FAMILY_CHUNKS

_DEPRELS = {
    "NOUN": ("nsubj", "obj", "obl", "nmod"),
    "PROPN": ("nsubj", "obj", "flat"),
    "PRON": ("nsubj", "obj", "nmod"),
    "VERB": ("advcl", "acl", "ccomp"),
    "ADJ": ("advcl", "acl"),
    "AUX": ("aux",),
    "ADV": ("advmod",),
    "DET": ("det",),
    "NUM": ("nummod",),
    "PUNCT": ("punct",),
}

NER_LABELS = ("PER", "LOC", "ORG")
_RETAG = {"NNG": "NNP", "NNP": "NNG", "VV": "VA", "VA": "VV", "MAG": "MAJ", "NP": "NNG"}

# Sizes at scale 1.0: one pass of a workload's commands takes 1-4 s on a
# 2-vCPU Xeon VM at 2.0 GHz, so a 20 s run makes 5-16 passes.
SHORT_SENTENCES = 1200
SHORT_LENGTH = (4, 20)
EVAL_SENTENCES = 2000
LONG_SENTENCES = 30
LONG_LENGTH = (280, 320)

# The rates below are coverage choices, not modelled traffic: neither the
# paper nor the test fixtures give figures for how often a sidecar annotates
# a token or how a prediction file is damaged.  Each share is large enough
# that every path it drives fires hundreds of times in one pass at scale 1,
# and the kinds are equally likely so that none is favoured.  Halving or
# doubling DAMAGE_SHARE leaves the per-row cost of reading and scoring
# predictions flat; each doubling of AUX_SHARE adds 3-12% to the per-token
# cost of `correct` (measured figures in README.md, "Workloads").
#
# Sidecar entry kinds: an NER label (ner-propn), an entry with neither field
# (looked up, changes nothing on this corpus, which has no NNP), an ext_xpos
# retag of the first tag (ext-xpos; NNG->NNP is then undone by ner-common),
# and a one-tag ext_xpos that collapses the word (ext-xpos on LEMMA, XPOS).
AUX_KINDS = ("ner", "empty", "retag", "collapse")
AUX_SHARE = 0.08
# Prediction damage kinds, one per row; what `eval` documents for each is
# in `degraded_predictions`.
DAMAGE_KINDS = ("wrong_head", "wrong_deprel", "dropped", "spaces", "bad_head", "duplicate", "conflict")
DAMAGE_SHARE = 0.30
# share of prediction blocks that get a row whose id lies past the sentence end
STRAY_ROW_SHARE = 0.10


@dataclass(frozen=True)
class Word:
    form: str
    lemma: str
    xpos: str
    upos: str
    head: int
    deprel: str


@dataclass(frozen=True)
class GoldSentence:
    sent_id: str
    words: tuple[Word, ...]


@dataclass(frozen=True)
class EvalOracle:
    """Expected `eval` report, counted from the perturbations applied."""

    total: int
    head_correct: int
    both_correct: int
    unmatched: int
    missing: int
    # rows per damage kind (and "kept", "stray"), for coverage checks
    kinds: dict[str, int] = field(default_factory=dict, compare=False)

    @property
    def uas(self) -> str:
        return _percentage(self.head_correct, self.total)

    @property
    def las(self) -> str:
        return _percentage(self.both_correct, self.total)


def _percentage(numerator: int, denominator: int) -> str:
    if denominator == 0:
        return "0.00"
    value = Decimal(100 * numerator) / Decimal(denominator)
    return str(value.quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))


def _rng(seed: int, stream: str) -> random.Random:
    return random.Random(f"udmorph-bench:{seed}:{stream}")


def _scaled(count: int, scale: float) -> int:
    return max(1, round(count * scale))


def _sample_forms(rng: random.Random, length: int) -> list[tuple[str, str, str, str]]:
    forms: list[tuple[str, str, str, str]] = []
    while len(forms) < length:
        forms.extend(rng.choice(CHUNKS))
    return forms[:length]


def _deprel(rng: random.Random, upos: str) -> str:
    return rng.choice(_DEPRELS.get(upos, ("dep",)))


def _sentence(sent_id: str, forms, heads, rng: random.Random) -> GoldSentence:
    words = tuple(
        Word(form, lemma, xpos, upos, head, "root" if head == 0 else _deprel(rng, upos))
        for (form, lemma, xpos, upos), head in zip(forms, heads)
    )
    return GoldSentence(sent_id, words)


def short_sentences(seed: int, count: int, stream: str = "short") -> list[GoldSentence]:
    """GSD-like sentences; every word attaches to a later word, the last is root."""
    rng = _rng(seed, stream)
    sentences = []
    for i in range(1, count + 1):
        n = rng.randint(*SHORT_LENGTH)
        forms = _sample_forms(rng, n)
        heads = [rng.randint(j + 2, n) for j in range(n - 1)] + [0]
        sentences.append(_sentence(f"{stream}-{i:06d}", forms, heads, rng))
    return sentences


def long_sentences(seed: int, count: int) -> list[GoldSentence]:
    """Head-final chains: word i heads on i+1, so tree depth equals length."""
    rng = _rng(seed, "long")
    sentences = []
    for i in range(1, count + 1):
        n = rng.randint(*LONG_LENGTH)
        forms = _sample_forms(rng, n)
        heads = list(range(2, n + 1)) + [0]
        sentences.append(_sentence(f"long-{i:06d}", forms, heads, rng))
    return sentences


def to_conllu(sentences: list[GoldSentence]) -> str:
    """CoNLL-U with empty FEATS, as enrich expects it."""
    lines = []
    for sentence in sentences:
        lines.append(f"# sent_id = {sentence.sent_id}")
        lines.append("# text = " + " ".join(w.form for w in sentence.words))
        for i, w in enumerate(sentence.words, start=1):
            lines.append(f"{i}\t{w.form}\t{w.lemma}\t{w.upos}\t{w.xpos}\t_\t{w.head}\t{w.deprel}\t_\t_")
        lines.append("")
    return "\n".join(lines) + "\n"


def aux_sidecar(seed: int, sentences: list[GoldSentence], share: float = AUX_SHARE) -> str:
    """Sidecar TSV giving a seeded share of tokens one entry of AUX_KINDS."""
    rng = _rng(seed, "aux")
    lines = ["# sent_id\ttoken_id\tner_label\text_xpos"]
    for sentence in sentences:
        for i, w in enumerate(sentence.words, start=1):
            if rng.random() >= share:
                continue
            tags = w.xpos.split("+")
            ner = ext = "_"
            kind = rng.choice(AUX_KINDS)
            if kind == "ner":
                ner = rng.choice(NER_LABELS)
            elif kind == "retag":
                ext = "+".join([_RETAG.get(tags[0], tags[0])] + tags[1:])
            elif kind == "collapse":
                ext = rng.choice(("NNG", "NNP", "MAG"))
            lines.append(f"{sentence.sent_id}\t{i}\t{ner}\t{ext}")
    return "\n".join(lines) + "\n"


def _row(i: int, w: Word, head: str, deprel: str, sep: str = "\t") -> str:
    return sep.join((str(i), w.form, w.lemma, w.upos, w.xpos, "_", head, deprel))


def degraded_predictions(seed: int, gold: list[GoldSentence]) -> tuple[str, EvalOracle]:
    """Prediction blocks with seeded damage, and the report they must score to.

    DAMAGE_SHARE of the gold words get one perturbation from DAMAGE_KINDS,
    and STRAY_ROW_SHARE of the blocks a row past the sentence end.  The
    oracle counts what `eval` documents for each:
    a kept or whitespace-separated row is fully correct, a wrong head or an
    unparsable head scores nothing, a wrong deprel keeps only UAS, a dropped
    row is missing, a verbatim duplicate adds one unmatched row, a
    conflicting duplicate makes both copies unmatched and the gold word
    missing, and a row whose id is past the sentence end is unmatched.
    """
    rng = _rng(seed, "pred")
    total = head_ok = both_ok = unmatched = missing = 0
    kinds: Counter[str] = Counter()
    blocks = []
    for sentence in gold:
        n = len(sentence.words)
        rows = []
        for i, w in enumerate(sentence.words, start=1):
            total += 1
            head, deprel = str(w.head), w.deprel
            kind = rng.choice(DAMAGE_KINDS) if rng.random() < DAMAGE_SHARE else "kept"
            kinds[kind] += 1
            if kind == "kept":
                rows.append(_row(i, w, head, deprel))
                head_ok += 1
                both_ok += 1
            elif kind == "wrong_head":
                wrong = rng.choice([h for h in range(n + 1) if h != w.head])
                rows.append(_row(i, w, str(wrong), deprel))
            elif kind == "wrong_deprel":
                rows.append(_row(i, w, head, "dep" if deprel != "dep" else "obj"))
                head_ok += 1
            elif kind == "dropped":
                missing += 1
            elif kind == "spaces":
                rows.append(_row(i, w, head, deprel, sep=" "))
                head_ok += 1
                both_ok += 1
            elif kind == "bad_head":
                rows.append(_row(i, w, "h" + head, deprel))
            elif kind == "duplicate":
                rows.append(_row(i, w, head, deprel))
                rows.append(_row(i, w, head, deprel))
                head_ok += 1
                both_ok += 1
                unmatched += 1
            else:  # conflict
                rows.append(_row(i, w, head, deprel))
                rows.append(_row(i, w, str((w.head + 1) % (n + 1)), deprel))
                unmatched += 2
                missing += 1
        if rng.random() < STRAY_ROW_SHARE:
            rows.append(_row(n + 1 + rng.randint(0, 3), sentence.words[0], "1", "dep"))
            unmatched += 1
            kinds["stray"] += 1
        if not rows:
            # an empty block would vanish and shift every later sentence
            rows.append(_row(n + 1, sentence.words[0], "1", "dep"))
            unmatched += 1
            kinds["stray"] += 1
        blocks.append("\n".join(rows) + "\n")
    oracle = EvalOracle(total, head_ok, both_ok, unmatched, missing, dict(kinds))
    return "\n".join(blocks), oracle


@dataclass(frozen=True)
class WorkloadInputs:
    """The files a workload reads, as text, plus what checks need to know."""

    corpus: str
    tokens: int
    sentences: int
    aux: str | None = None
    predictions: str | None = None
    oracle: EvalOracle | None = None


def _inputs(sentences: list[GoldSentence], aux: str | None = None, predictions=None) -> WorkloadInputs:
    pred_text, oracle = predictions if predictions else (None, None)
    return WorkloadInputs(
        corpus=to_conllu(sentences),
        tokens=sum(len(s.words) for s in sentences),
        sentences=len(sentences),
        aux=aux,
        predictions=pred_text,
        oracle=oracle,
    )


def generate(workload: str, seed: int, scale: float = 1.0) -> tuple[WorkloadInputs, WorkloadInputs]:
    """(main inputs, one-sentence inputs for the set-up measurement)."""
    if workload in ("pipeline", "parallel"):
        sentences = short_sentences(seed, _scaled(SHORT_SENTENCES, scale))
        full = _inputs(sentences, aux=aux_sidecar(seed, sentences))
        one = _inputs(sentences[:1], aux=aux_sidecar(seed, sentences[:1], share=1.0))
    elif workload == "long":
        sentences = long_sentences(seed, _scaled(LONG_SENTENCES, scale))
        full = _inputs(sentences, aux=aux_sidecar(seed, sentences))
        one = _inputs(sentences[:1], aux=aux_sidecar(seed, sentences[:1], share=1.0))
    elif workload == "eval":
        sentences = short_sentences(seed, _scaled(EVAL_SENTENCES, scale), "eval")
        full = _inputs(sentences, predictions=degraded_predictions(seed, sentences))
        one = _inputs(sentences[:1], predictions=degraded_predictions(seed, sentences[:1]))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return full, one
