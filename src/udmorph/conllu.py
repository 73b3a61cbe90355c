"""CoNLL-U parsing, serialization and validation.

The data model keeps the morpheme-segmented LEMMA and XPOS columns as raw
`+`-joined strings (the serialization authority).  Parsing splits each
token line once and resolves its raw LEMMA, UPOS, XPOS and FEATS cells, as
one tab-joined string, once, in `_token_cells`: it checks the tags and the
alignment, shares one FEATS bag (`_parse_feats`) and builds no morphemes.
A token's aligned (surface, tag) morpheme pairs come from `_morphemes`,
which splits each (LEMMA, XPOS) shape once and shares the result among
every token of that shape.  `validate` is `validation.validate`, imported
on first use (`__getattr__`), so a process that never validates neither
compiles nor loads the checks.  Every memo is an LRU cache of `MEMO_SIZE`.
Multiword-token ranges (`1-2`) and empty nodes (`1.1`) are carried verbatim
and excluded from the token list and from all structural checks.
`write_conllu` renders each token row with one f-string from the token's
unpacked values and writes a sentence whole with one `write`.
Every reader in the package takes a `str` as `_text_stream` gives it: with
universal newlines, as the CLI reads a file.
"""

from __future__ import annotations

import io
import re
import sys
from functools import lru_cache
from typing import Iterable, Iterator, NamedTuple, Sequence, TextIO

COLUMN_COUNT = 10

# Entries each memo keeps, least recently used dropped first: a fixed bound,
# so a stream of ever new values cannot grow memory.  The memos are
# `conllu._parse_feats` (FEATS cells), `conllu._token_cells` (a token line's
# raw LEMMA, UPOS, XPOS and FEATS cells, joined), `conllu._morphemes` (split word
# shapes), `validation._clean_shape` and `validation._clean_deprel` (the
# shapes and DEPRELs `validate` judged), and a rule pack's `verdict` and
# `_winners_bag`.
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
    `|`, multiple values per key joined by `,`, the empty bag as `_`.  A bag
    renders its text, and judges whether every key and value is valid FEATS
    syntax (as a parsed bag's always are, while a bag built from a dict may
    hold anything), once, when it is built.
    """

    __slots__ = ("_entries", "_text", "_verdict")

    def __init__(self, entries: dict[str, Iterable[str]] | None = None):
        items = []
        for key in sorted(entries or (), key=lambda k: (k.lower(), k)):
            values = tuple(sorted(set(entries[key]), key=lambda v: (v.lower(), v)))
            if values:
                items.append((key, values))
        object.__setattr__(self, "_entries", tuple(items))
        object.__setattr__(self, "_text", "|".join(f"{k}={','.join(v)}" for k, v in items) or "_")
        object.__setattr__(self, "_verdict", all(
            _FEAT_KEY_RE.match(key) and all(_FEAT_VALUE_RE.match(v) for v in values)
            for key, values in items
        ))

    def __setattr__(self, name, value):
        raise AttributeError("FeatureBag is immutable")

    def __reduce__(self):
        return (FeatureBag, (dict(self._entries),))

    def items(self) -> tuple[tuple[str, tuple[str, ...]], ...]:
        return self._entries

    def get(self, key: str) -> tuple[str, ...]:
        for k, values in self._entries:
            if k == key:
                return values
        return ()

    def __bool__(self) -> bool:
        return bool(self._entries)

    def __eq__(self, other) -> bool:
        return isinstance(other, FeatureBag) and self._entries == other._entries

    def __hash__(self) -> int:
        return hash(self._entries)

    def __repr__(self) -> str:
        return f"FeatureBag({dict((k, list(v)) for k, v in self._entries)!r})"

    def to_conllu(self) -> str:
        return self._text

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


# Builds a record from the tuple of its values in one C-level call, without
# the Python-level `__new__` of a NamedTuple: `_new_tuple(Token, values)`.
_new_tuple = tuple.__new__


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
    return tuple([_new_tuple(Morpheme, pair) for pair in zip(segments, tags)])


class Token(NamedTuple):
    """One syntactic word.  `lemma` and `xpos` hold raw `+`-joined columns.

    A record like every other: copied with changes by `token._replace(...)`,
    and equal to the plain tuple of its ten values.  Parse, `with_feats` and
    `with_misc` build it with `_new_tuple(Token, values)`, which gives the
    same record; they, and `validation.validate` and the two row writers,
    `write_conllu` and `itdata.to_it_record`, which unpack it, are the only
    code that knows the field positions."""

    id: int
    form: str
    lemma: str
    xpos: str
    upos: str
    feats: FeatureBag = FeatureBag()  # immutable, so one empty bag serves all
    head: int | None = None
    deprel: str = ""
    deps: str = "_"
    misc: str = "_"

    @property
    def morphemes(self) -> tuple[Morpheme, ...]:
        """Aligned (surface, tag) pairs, shared by every token of the same
        shape; empty when LEMMA or XPOS is empty, the one misalignment
        lenient parsing admits."""
        try:
            return _morphemes(self.lemma, self.xpos)
        except ValueError as error:
            raise ValueError(f"{error} in token {self.id} ({self.form!r})") from None

    def with_feats(self, feats: FeatureBag) -> Token:
        """This token with `feats`; the token itself when the bag is equal
        to its own."""
        if feats is self.feats or feats == self.feats:
            return self
        return _new_tuple(Token, (*self[:5], feats, *self[6:]))

    def with_misc(self, misc: str) -> Token:
        """This token with the MISC cell `misc`."""
        return _new_tuple(Token, (*self[:9], misc))


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
def _token_cells(cells: str, lenient: bool) -> tuple[str, str, str, FeatureBag, tuple[str, ...]]:
    """The stored LEMMA, XPOS and UPOS of a token line's raw LEMMA, UPOS,
    XPOS and FEATS cells, joined by tabs as the line holds them, its shared
    FEATS bag, and the unknown XPOS codes in order, each mapped to `NA`
    under `lenient`.  Checks the column count, then the tags, then the
    alignment, then FEATS, once per distinct cells, and builds no morphemes;
    a bad cell raises `ConlluError` without a line number and is not
    remembered."""
    try:
        lemma, upos, xpos, feats = cells.split("\t")
    except ValueError:  # the line around these cells has not ten columns
        raise _column_error(cells.count("\t") + 7) from None
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
    return lemma, "+".join(tags), "" if upos == "_" else upos, _parse_feats(feats), tuple(unknown)


def _column_error(columns: int, line: int | None = None) -> ConlluError:
    return ConlluError(f"expected {COLUMN_COUNT} tab-separated columns, got {columns}", line)


def _text_stream(source: str | TextIO) -> TextIO:
    """A stream as given, or a `str` read with universal newlines, as the
    CLI reads a file."""
    return io.StringIO(source, newline=None) if isinstance(source, str) else source


def _id_error(raw_id: str, expected: int, lineno: int) -> ConlluError:
    """The error for a word id that is not the next one of its sentence."""
    try:
        token_id = int(raw_id)
    except ValueError:  # more digits than int() converts
        return ConlluError(f"invalid token id: {len(raw_id)} digits", lineno)
    return ConlluError(f"non-contiguous token ids: expected {expected}, got {token_id}", lineno)


def iter_sentences(source: str | TextIO, *, lenient: bool = False) -> Iterator[Sentence]:
    """Stream sentences from decoded CoNLL-U text: open a file with
    `encoding="utf-8-sig"`, as the CLI does, to drop a leading BOM.  Memory
    holds one sentence plus the parsed FEATS memo and the token-cells memo,
    which keep at most `MEMO_SIZE` entries each.  Under `lenient`,
    each unknown XPOS tag is warned about once, at the end.  A `str` is read
    with universal newlines, as the CLI reads a file."""
    stream = _text_stream(source)
    comments: list[str] = []
    tokens: list[Token] = []
    extras: list[tuple[int, str]] = []
    unknown_tags: dict[str, list[int]] = {}  # tag -> [first line, count]
    id_texts = ["0"]  # id_texts[n] == str(n), grown to the longest sentence
    # HEAD cell -> value: `_`, `0` and each text of id_texts
    head_values: dict[str, int | None] = {"_": None, "0": 0}

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
        # id, FORM, the LEMMA/UPOS/XPOS/FEATS cells still joined, and the
        # last four columns; the column count is checked before anything
        # else, here or, for a word line, by `_token_cells`
        try:
            raw_id, form, rest = line.split("\t", 2)
            cells, head, deprel, deps, misc = rest.rsplit("\t", 4)
        except ValueError:
            raise _column_error(line.count("\t") + 1, lineno) from None
        token_id = len(tokens) + 1
        if token_id == len(id_texts):
            id_texts.append(str(token_id))
            head_values[id_texts[token_id]] = token_id
        if raw_id != id_texts[token_id]:
            if cells.count("\t") != 3:
                raise _column_error(cells.count("\t") + 7, lineno)
            if _WORD_ID_RE.match(raw_id):
                raise _id_error(raw_id, token_id, lineno)
            if not (_RANGE_ID_RE.match(raw_id) or _EMPTY_ID_RE.match(raw_id)):
                raise ConlluError(f"invalid token id {raw_id!r}", lineno)
            extras.append((len(tokens), line))
            continue

        try:
            lemma, xpos, upos, bag, unknown = _token_cells(cells, lenient)
        except ConlluError as error:
            raise ConlluError(str(error), lineno) from None
        for code in unknown:
            unknown_tags.setdefault(code, [lineno, 0])[1] += 1

        try:
            head_value = head_values[head]
        except KeyError:  # a head past the longest sentence yet, or a bad one
            if not _WORD_ID_RE.match(head):
                raise ConlluError(f"invalid HEAD value {head!r}", lineno) from None
            try:
                head_value = int(head)
            except ValueError:  # more digits than int() converts
                raise ConlluError(f"invalid HEAD value: {len(head)} digits", lineno) from None

        tokens.append(
            _new_tuple(
                Token,
                (token_id, form, lemma, xpos, upos, bag, head_value,
                 "" if deprel == "_" else deprel, deps, misc),
            )
        )

    if comments or tokens or extras:
        yield flush(lineno + 1)
    for code, (first_line, count) in unknown_tags.items():
        warn(f"unknown XPOS tag {code!r} mapped to NA {count} time(s), first on line {first_line}")


def parse_conllu(source: str | TextIO, *, lenient: bool = False) -> list[Sentence]:
    return list(iter_sentences(source, lenient=lenient))


def serialize_conllu(sentences: Iterable[Sentence]) -> str:
    out = io.StringIO()
    write_conllu(sentences, out)
    return out.getvalue()


def write_conllu(sentences: Iterable[Sentence], sink: TextIO) -> None:
    """Write each sentence with one `write`: its comments, then each extra
    line before the token it precedes, then the token's cells, an empty
    value written `_`, then the blank line that ends it.  An extra at
    `len(tokens)` follows the last token; one at an index outside
    0..len(tokens) raises `ConlluError` before its sentence is written."""
    for comments, tokens, extras in sentences:
        rows = [
            f"{token_id}\t{form}\t{lemma or '_'}\t{upos or '_'}\t{xpos or '_'}\t{feats._text}\t"
            f"{'_' if head is None else head}\t{deprel or '_'}\t{deps}\t{misc}"
            for token_id, form, lemma, xpos, upos, feats, head, deprel, deps, misc in tokens
        ]
        if extras:
            rows = _with_extras(rows, extras)
        sink.write("\n".join([*comments, *rows, "\n"]))


def _with_extras(rows: list[str], extras: tuple[tuple[int, str], ...]) -> list[str]:
    """`rows` with each extra line placed before the row at its index, in
    the order the extras are given."""
    n = len(rows)
    before: dict[int, list[str]] = {}
    for index, raw in extras:
        if not 0 <= index <= n:
            raise ConlluError(f"extra line at index {index} outside 0..{n}: {raw!r}")
        before.setdefault(index, []).append(raw)
    lines = []
    for i, row in enumerate(rows):
        lines.extend(before.get(i, ()))
        lines.append(row)
    lines.extend(before.get(n, ()))
    return lines


def __getattr__(name: str):
    """`validate` (`validation.validate`), imported on first use and then
    bound here, so a later lookup is a plain attribute and a process that
    never validates neither compiles nor loads the checks (PEP 562)."""
    if name != "validate":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .validation import validate

    globals()["validate"] = validate
    return validate
