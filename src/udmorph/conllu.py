"""CoNLL-U parsing, serialization and validation.

The data model keeps the morpheme-segmented LEMMA and XPOS columns as raw
`+`-joined strings (the serialization authority).  Parsing checks each raw
(LEMMA, XPOS) cell pair once, in `_word_shape`, and builds no morphemes.  A
token's aligned (surface, tag) morpheme pairs come from `_morphemes`, which
splits each (LEMMA, XPOS) shape once and shares the result among every
token of that shape.  Every memo in the package is an LRU cache bounded by
`MEMO_SIZE`.
Multiword-token ranges (`1-2`) and empty nodes (`1.1`) are carried verbatim
and excluded from the token list and from all structural checks.
"""

from __future__ import annotations

import io
import re
import sys
from functools import lru_cache
from typing import Iterable, Iterator, NamedTuple, Sequence, TextIO

COLUMN_COUNT = 10

# Entries each memo keeps (parsed FEATS cells, checked raw word shapes, split
# word shapes, a rule pack's verdicts and bags), least recently used dropped
# first: a fixed bound, so a stream of ever new values cannot grow memory.
MEMO_SIZE = 4096

# Sejong morpheme tag inventory (closed set).
SEJONG_TAGS = frozenset(
    """
    NNG NNP NNB NP NR VV VA VX VCP VCN MM MAG MAJ IC
    JKS JKC JKG JKO JKB JKV JKQ JX JC
    EP EF EC ETN ETM XPN XSN XSV XSA XR
    SF SP SS SE SO SW SL SH SN NA
    """.split()
)

UPOS_TAGS = frozenset(
    "NOUN PROPN VERB ADJ ADV PRON DET NUM AUX CCONJ SCONJ ADP PART INTJ PUNCT SYM X".split()
)

# UD's 37 universal dependency relations; a DEPREL may add a `:subtype`.
UD_RELATIONS = frozenset(
    """
    acl advcl advmod amod appos aux case cc ccomp clf compound conj cop csubj
    dep det discourse dislocated expl fixed flat goeswith iobj list mark nmod
    nsubj nummod obj obl orphan parataxis punct reparandum root vocative xcomp
    """.split()
)

# UPOS derived from the word's lexical base morpheme.  Derivational suffixes
# (XSN/XSV/XSA) shift the category of whatever they attach to, so the scan in
# canonical_upos() folds them in after the base is found.  XR behaves as a
# noun fragment and therefore seeds a NOUN base.
CANONICAL_UPOS = {
    "NNG": "NOUN",
    "NNB": "NOUN",
    "NR": "NOUN",
    "NNP": "PROPN",
    "NP": "PRON",
    "VV": "VERB",
    "VA": "ADJ",
    "VX": "AUX",
    "VCP": "ADJ",
    "VCN": "ADJ",
    "MM": "DET",
    "MAG": "ADV",
    "MAJ": "ADV",
    "IC": "INTJ",
    "SN": "NUM",
    "SF": "PUNCT",
    "SP": "PUNCT",
    "SS": "PUNCT",
    "SE": "PUNCT",
    "SO": "PUNCT",
    "SW": "SYM",
    "SL": "X",
    "SH": "X",
    "XR": "NOUN",
}

_DERIVED_UPOS = {"XSN": "NOUN", "XSV": "VERB", "XSA": "ADJ"}

_FEAT_KEY_RE = re.compile(r"[A-Za-z][A-Za-z0-9\[\]]*\Z")
_FEAT_VALUE_RE = re.compile(r"[A-Za-z0-9]+\Z")
_WORD_ID_RE = re.compile(r"[1-9][0-9]*\Z")
_RANGE_ID_RE = re.compile(r"[0-9]+-[0-9]+\Z")
_EMPTY_ID_RE = re.compile(r"[0-9]+\.[0-9]+\Z")


class UdmorphError(ValueError):
    """Bad input to any udmorph stage; carries the offending 1-based line
    number, when there is one, and names it before the message."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ConlluError(UdmorphError):
    """Malformed CoNLL-U input."""


def warn(message: str) -> None:
    """Write `WARNING: <message>` as one line to the current stderr."""
    print(f"WARNING: {message}", file=sys.stderr)


class FeatureBag:
    """Immutable set of feature key -> values assignments.

    Values are stored deduplicated and canonically sorted, so serialization
    is a fixed point: keys in case-insensitive alphabetical order joined by
    `|`, multiple values per key joined by `,`, the empty bag as `_`; the
    text is rendered once per bag.
    """

    __slots__ = ("_entries", "_text")

    def __init__(self, entries: dict[str, Iterable[str]] | None = None):
        items = []
        for key in sorted(entries or (), key=lambda k: (k.lower(), k)):
            values = tuple(sorted(set(entries[key]), key=lambda v: (v.lower(), v)))
            if values:
                items.append((key, values))
        object.__setattr__(self, "_entries", tuple(items))
        object.__setattr__(self, "_text", None)

    def __setattr__(self, name, value):
        raise AttributeError("FeatureBag is immutable")

    def __reduce__(self):
        return (FeatureBag, (dict(self._entries),))

    def items(self) -> tuple[tuple[str, tuple[str, ...]], ...]:
        return self._entries

    def keys(self) -> tuple[str, ...]:
        return tuple(k for k, _ in self._entries)

    def get(self, key: str) -> tuple[str, ...]:
        for k, values in self._entries:
            if k == key:
                return values
        return ()

    def __contains__(self, key: str) -> bool:
        return any(k == key for k, _ in self._entries)

    def __bool__(self) -> bool:
        return bool(self._entries)

    def __eq__(self, other) -> bool:
        return isinstance(other, FeatureBag) and self._entries == other._entries

    def __hash__(self) -> int:
        return hash(self._entries)

    def __repr__(self) -> str:
        return f"FeatureBag({dict((k, list(v)) for k, v in self._entries)!r})"

    def to_conllu(self) -> str:
        text = self._text
        if text is None:
            text = "|".join(f"{k}={','.join(v)}" for k, v in self._entries) or "_"
            object.__setattr__(self, "_text", text)
        return text

    @classmethod
    def from_conllu(cls, text: str, line: int | None = None) -> "FeatureBag":
        """The bag for a FEATS cell, shared by every equal cell; a bad cell
        raises `ConlluError` naming `line` and is not remembered."""
        try:
            return _parse_feats(text)
        except ConlluError as error:
            raise ConlluError(str(error), line) from None


@lru_cache(maxsize=MEMO_SIZE)
def _parse_feats(text: str) -> FeatureBag:
    if text in ("", "_"):
        return FeatureBag()
    entries: dict[str, list[str]] = {}
    for item in text.split("|"):
        key, sep, value = item.partition("=")
        if not sep or not key or not value:
            raise ConlluError(f"invalid FEATS syntax: {item!r}")
        if not _FEAT_KEY_RE.match(key):
            raise ConlluError(f"invalid FEATS key: {key!r}")
        for v in value.split(","):
            if not _FEAT_VALUE_RE.match(v):
                raise ConlluError(f"invalid FEATS value: {v!r}")
            entries.setdefault(key, []).append(v)
    return FeatureBag(entries)


class Morpheme(NamedTuple):
    surface: str
    tag: str


def _split_plus(raw: str) -> tuple[str, ...]:
    if raw == "":
        return ()
    if raw == "+":
        # a literal plus-sign token cannot be a segment boundary
        return ("+",)
    return tuple(raw.split("+"))


def _misalignment(segments: Sequence[str], tags: Sequence[str], lenient: bool) -> str | None:
    """The alignment rule: one LEMMA segment per XPOS tag.  `lenient` admits
    an empty LEMMA or XPOS, which then yields no morpheme pairs."""
    if len(segments) == len(tags) or (lenient and not (segments and tags)):
        return None
    return (
        f"morpheme/tag misalignment: {len(segments)} lemma segment(s) "
        f"vs {len(tags)} XPOS tag(s)"
    )


@lru_cache(maxsize=MEMO_SIZE)
def _morphemes(lemma: str, xpos: str) -> tuple[Morpheme, ...]:
    """The one place an aligned word is split; a misaligned shape raises
    `ValueError` and is not remembered."""
    segments, tags = _split_plus(lemma), _split_plus(xpos)
    problem = _misalignment(segments, tags, lenient=True)
    if problem:
        raise ValueError(problem)
    return tuple(map(Morpheme, segments, tags))


class Token:
    """One syntactic word.  `lemma` and `xpos` hold raw `+`-joined columns.

    Immutable.  Its `__dict__` holds exactly its fields, in the order of
    `__init__`, by which it compares, hashes and prints."""

    def __init__(
        self, id: int, form: str, lemma: str, xpos: str, upos: str,
        feats: FeatureBag = FeatureBag(),  # immutable, so one empty bag serves all
        head: int | None = None, deprel: str = "", deps: str = "_", misc: str = "_",
    ):
        self.__dict__.update(
            id=id, form=form, lemma=lemma, xpos=xpos, upos=upos,
            feats=feats, head=head, deprel=deprel, deps=deps, misc=misc,
        )

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.__dict__ == other.__dict__

    def __hash__(self) -> int:
        return hash(tuple(self.__dict__.values()))

    def __repr__(self) -> str:
        return "Token(" + ", ".join(f"{k}={v!r}" for k, v in self.__dict__.items()) + ")"

    @property
    def morphemes(self) -> tuple[Morpheme, ...]:
        """Aligned (surface, tag) pairs, shared by every token of the same
        shape; empty when LEMMA or XPOS is empty, the one misalignment
        lenient parsing admits."""
        try:
            return _morphemes(self.lemma, self.xpos)
        except ValueError as error:
            raise ValueError(f"{error} in token {self.id} ({self.form!r})") from None

    @classmethod
    def _from_fields(cls, values: dict) -> Token:
        """The fast way to build a token: `values` holds every field in
        declaration order (so a copy pickles like a `Token(...)`)."""
        token = object.__new__(cls)
        token.__dict__.update(values)
        return token

    def replace(self, **changes) -> Token:
        """This token with `changes`; an unknown field raises `TypeError`."""
        if not self.__dict__.keys() >= changes.keys():
            unknown = min(changes.keys() - self.__dict__.keys())
            raise TypeError(f"Token.replace() got an unexpected keyword argument {unknown!r}")
        return self._from_fields({**self.__dict__, **changes})

    def with_feats(self, feats: FeatureBag) -> Token:
        """This token with `feats`; the token itself when the bag is equal
        to its own."""
        if feats == self.feats:
            return self
        return self._from_fields({**self.__dict__, "feats": feats})


class Sentence(NamedTuple):
    """Comments (verbatim), syntactic words, and passthrough rows.

    `extras` holds multiword-token / empty-node lines as (index, raw line)
    where index is the position in `tokens` before which the line sits.
    """

    comments: tuple[str, ...] = ()
    tokens: tuple[Token, ...] = ()
    extras: tuple[tuple[int, str], ...] = ()

    def _comment_value(self, key: str) -> str | None:
        prefix = f"# {key} ="
        for line in self.comments:
            if line.startswith(prefix):
                return line[len(prefix):].strip()
        return None

    @property
    def sent_id(self) -> str | None:
        return self._comment_value("sent_id")

    @property
    def text(self) -> str | None:
        return self._comment_value("text")


class Diagnostic(NamedTuple):
    sent_id: str
    token_id: int | None
    rule: str
    message: str

    def __str__(self) -> str:
        where = self.sent_id if self.token_id is None else f"{self.sent_id}:{self.token_id}"
        return f"[{self.rule}] {where}: {self.message}"


def canonical_upos(morphemes: Iterable[Morpheme]) -> str | None:
    """UPOS of the word's lexical base, folding in derivational suffixes."""
    base = None
    for m in morphemes:
        if base is None:
            base = CANONICAL_UPOS.get(m.tag) or _DERIVED_UPOS.get(m.tag)
        elif m.tag in _DERIVED_UPOS:
            base = _DERIVED_UPOS[m.tag]
    return base


@lru_cache(maxsize=MEMO_SIZE)
def _word_shape(lemma: str, xpos: str, lenient: bool) -> tuple[str, str, tuple[str, ...]]:
    """The stored LEMMA and XPOS of a raw (LEMMA, XPOS) cell pair, with each
    unknown tag mapped to `NA` under `lenient`, and the unknown codes in
    order.  Checks the tags and the alignment once per shape and builds no
    morphemes; a bad shape raises `ConlluError` without a line number and
    is not remembered."""
    lemma = "" if lemma == "_" else lemma
    xpos = "" if xpos == "_" else xpos
    tags = []
    unknown = []
    for code in _split_plus(xpos):
        if code not in SEJONG_TAGS:
            if not lenient:
                raise ConlluError(f"unknown XPOS tag {code!r}")
            unknown.append(code)
            code = "NA"
        tags.append(code)
    problem = _misalignment(_split_plus(lemma), tags, lenient)
    if problem:
        raise ConlluError(problem)
    return lemma, "+".join(tags), tuple(unknown)


def _parse_token(
    columns: list[str], lineno: int, expected_id: int, lenient: bool, unknown_tags: dict
) -> Token:
    raw_id, form, lemma, upos, xpos, feats, head, deprel, deps, misc = columns
    try:
        token_id = int(raw_id)
    except ValueError:  # more digits than int() converts
        raise ConlluError(f"invalid token id: {len(raw_id)} digits", lineno) from None
    if token_id != expected_id:
        raise ConlluError(
            f"non-contiguous token ids: expected {expected_id}, got {token_id}", lineno
        )

    try:
        lemma, xpos, unknown = _word_shape(lemma, xpos, lenient)
    except ConlluError as error:
        raise ConlluError(str(error), lineno) from None
    for code in unknown:
        unknown_tags.setdefault(code, [lineno, 0])[1] += 1

    if head == "_":
        head_value: int | None = None
    elif head == "0" or _WORD_ID_RE.match(head):
        try:
            head_value = int(head)
        except ValueError:  # more digits than int() converts
            raise ConlluError(f"invalid HEAD value: {len(head)} digits", lineno) from None
    else:
        raise ConlluError(f"invalid HEAD value {head!r}", lineno)

    return Token._from_fields(
        {
            "id": token_id,
            "form": form,
            "lemma": lemma,
            "xpos": xpos,
            "upos": "" if upos == "_" else upos,
            "feats": FeatureBag.from_conllu(feats, lineno),
            "head": head_value,
            "deprel": "" if deprel == "_" else deprel,
            "deps": deps,
            "misc": misc,
        }
    )


def iter_sentences(source: str | TextIO, *, lenient: bool = False) -> Iterator[Sentence]:
    """Stream sentences from decoded CoNLL-U text: open a file with
    `encoding="utf-8-sig"`, as the CLI does, to drop a leading BOM.  Memory
    holds one sentence plus the parsed FEATS memo and the checked word-shape
    memo, which keep at most `MEMO_SIZE` entries each.  Under `lenient`,
    each unknown XPOS tag is warned about once, at the end."""
    stream = io.StringIO(source) if isinstance(source, str) else source
    comments: list[str] = []
    tokens: list[Token] = []
    extras: list[tuple[int, str]] = []
    unknown_tags: dict[str, list[int]] = {}  # tag -> [first line, count]

    def flush(lineno: int) -> Sentence:
        if not tokens:
            raise ConlluError("sentence without token lines", lineno)
        sentence = Sentence(tuple(comments), tuple(tokens), tuple(extras))
        comments.clear()
        tokens.clear()
        extras.clear()
        return sentence

    lineno = 0
    for lineno, line in enumerate(stream, start=1):
        line = line.rstrip("\n")
        if line == "":
            if comments or tokens or extras:
                yield flush(lineno)
            continue
        if line.startswith("#"):
            if tokens or extras:
                raise ConlluError("comment line inside a sentence", lineno)
            comments.append(line)
            continue
        columns = line.split("\t")
        if len(columns) != COLUMN_COUNT:
            raise ConlluError(
                f"expected {COLUMN_COUNT} tab-separated columns, got {len(columns)}", lineno
            )
        raw_id = columns[0]
        if _WORD_ID_RE.match(raw_id):
            tokens.append(_parse_token(columns, lineno, len(tokens) + 1, lenient, unknown_tags))
        elif _RANGE_ID_RE.match(raw_id) or _EMPTY_ID_RE.match(raw_id):
            extras.append((len(tokens), line))
        else:
            raise ConlluError(f"invalid token id {raw_id!r}", lineno)

    if comments or tokens or extras:
        yield flush(lineno + 1)
    for code, (first_line, count) in unknown_tags.items():
        warn(f"unknown XPOS tag {code!r} mapped to NA {count} time(s), first on line {first_line}")


def parse_conllu(source: str | TextIO, *, lenient: bool = False) -> list[Sentence]:
    return list(iter_sentences(source, lenient=lenient))


def token_to_line(token: Token) -> str:
    return "\t".join(
        (
            str(token.id),
            token.form,
            token.lemma or "_",
            token.upos or "_",
            token.xpos or "_",
            token.feats.to_conllu(),
            "_" if token.head is None else str(token.head),
            token.deprel or "_",
            token.deps,
            token.misc,
        )
    )


def sentence_to_lines(sentence: Sentence) -> Iterator[str]:
    yield from sentence.comments
    extras = dict()
    for index, raw in sentence.extras:
        extras.setdefault(index, []).append(raw)
    for i, token in enumerate(sentence.tokens):
        yield from extras.get(i, ())
        yield token_to_line(token)
    yield from extras.get(len(sentence.tokens), ())


def serialize_conllu(sentences: Iterable[Sentence]) -> str:
    out = io.StringIO()
    write_conllu(sentences, out)
    return out.getvalue()


def write_conllu(sentences: Iterable[Sentence], sink: TextIO) -> None:
    for sentence in sentences:
        for line in sentence_to_lines(sentence):
            sink.write(line + "\n")
        sink.write("\n")


def _check_token(sid: str, token: Token, report) -> None:
    # the raw columns, not token.morphemes: a misaligned token is reported
    segments, tags = _split_plus(token.lemma), _split_plus(token.xpos)
    problem = _misalignment(segments, tags, lenient=False)
    if problem:
        report(token.id, "morph-alignment", problem)
    for code in tags:
        if code not in SEJONG_TAGS:
            report(token.id, "xpos-tag", f"unknown XPOS tag {code!r}")
    for surface in segments:
        # a surface holds "+" only as the whole literal-plus lemma
        if surface == "" or "\t" in surface:
            report(token.id, "morpheme-surface", f"invalid morpheme surface {surface!r}")
    if token.upos not in UPOS_TAGS:
        report(token.id, "upos-value", f"invalid UPOS {token.upos!r}")
    if token.deprel and token.deprel.partition(":")[0] not in UD_RELATIONS:
        report(token.id, "deprel-value", f"invalid DEPREL {token.deprel!r}")
    for key, values in token.feats.items():
        if not _FEAT_KEY_RE.match(key):
            report(token.id, "feats-syntax", f"invalid feature key {key!r}")
        for v in values:
            if not _FEAT_VALUE_RE.match(v):
                report(token.id, "feats-syntax", f"invalid feature value {v!r}")


def _cycle_entries(heads: dict[int, int | None]) -> dict[int, int | None]:
    """For each token id, the first node its walk up `heads` visits twice,
    or None when the walk ends at 0, a missing head or an id outside the
    sentence.  Each node is walked once: a node on a cycle is its own entry,
    and a tail node has the entry of the node it heads into."""
    entries: dict[int, int | None] = {}
    for start in heads:
        path: list[int] = []
        on_path: set[int] = set()
        node = start
        while node != 0 and node in heads and node not in entries and node not in on_path:
            path.append(node)
            on_path.add(node)
            node = heads[node]
        if node in on_path:
            first = path.index(node)
            for member in path[first:]:
                entries[member] = member
            del path[first:]
            reached = node
        else:
            reached = entries.get(node)
        for member in path:
            entries[member] = reached
    return entries


def validate(sentences: Iterable[Sentence], start: int = 1) -> list[Diagnostic]:
    """Check every sentence/token/feature invariant; diagnostics, not raises.

    A sentence without a `sent_id`, or whose `sent_id` holds a tab (which
    no tab-separated file can carry), is named by its position, counted from
    `start`.  Linear in each sentence's length."""
    diagnostics: list[Diagnostic] = []
    for index, sentence in enumerate(sentences, start=start):
        sent_id = sentence.sent_id or ""
        sid = sent_id if sent_id and "\t" not in sent_id else str(index)

        def report(token_id: int | None, rule: str, message: str, _sid=sid):
            diagnostics.append(Diagnostic(_sid, token_id, rule, message))

        if "\t" in sent_id:
            report(None, "sent-id", f"sent_id {sent_id!r} holds a tab")

        n = len(sentence.tokens)
        for position, token in enumerate(sentence.tokens, start=1):
            if token.id != position:
                report(token.id, "id-sequence", f"expected id {position}, got {token.id}")
            _check_token(sid, token, report)

        roots = [t for t in sentence.tokens if t.head == 0]
        if n and not roots:
            report(None, "root-count", "no root token (head == 0)")
        elif len(roots) > 1:
            report(None, "root-count", f"multiple roots: tokens {[t.id for t in roots]}")

        for token in sentence.tokens:
            if token.head is None:
                report(token.id, "head-missing", "missing HEAD value")
            elif token.head > n:
                report(token.id, "head-range", f"head {token.head} outside 0..{n}")
            if token.head == 0 and token.deprel != "root":
                report(token.id, "root-deprel", f"head 0 requires deprel 'root', got {token.deprel!r}")
            if token.head not in (0, None) and token.deprel == "root":
                report(token.id, "root-deprel", f"deprel 'root' requires head 0, got {token.head}")
            if token.head not in (0, None) and not token.deprel:
                report(token.id, "deprel-missing", "missing DEPREL value")

        entries = _cycle_entries({t.id: t.head for t in sentence.tokens})
        for token in sentence.tokens:
            through = entries.get(token.id)
            if through is not None:
                report(token.id, "head-cycle", f"head cycle through token {through}")
    return diagnostics
