"""Systematic POS/XPOS corrections and conversion statistics.

`correct_sentence` runs one loop over a sentence's tokens, which applies five
correction rules in a fixed order to each; later rules see the earlier rules'
output.  Corrections touch UPOS, XPOS and LEMMA only - ids, heads and
dependency relations are never modified.  Each change goes through one
helper, made once per sentence, which writes a CorrectionRecord iff the
field's value changes, by the field map `apply_records` replays with, so
replaying the records against the original sentence reproduces the corrected
sentence exactly.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple, Sequence, TextIO

from .conllu import (
    CANONICAL_UPOS,
    SEJONG_TAGS,
    Morpheme,
    Sentence,
    Token,
    UdmorphError,
    _split_plus,
    _text_stream,
    canonical_upos,
)


class CorrectionError(UdmorphError):
    """Malformed aux sidecar or correction log, or a record that fits no token."""


def _parse_int(text: str, name: str, lineno: int) -> int:
    try:
        return int(text)
    except ValueError:
        raise CorrectionError(f"{name} must be an integer, got {text!r}", line=lineno) from None


def _parse_token_id(text: str, lineno: int) -> int:
    token_id = _parse_int(text, "token_id", lineno)
    if token_id < 1:
        raise CorrectionError(f"token_id must be at least 1, got {token_id}", line=lineno)
    return token_id


class AuxAnnotation(NamedTuple):
    """External tagger/NER output for one token, read from the sidecar file."""

    sent_id: str
    token_id: int
    ner_label: str | None = None
    ext_xpos: tuple[str, ...] | None = None


class CorrectionRecord(NamedTuple):
    sent_id: str
    token_id: int
    field: str  # UPOS | XPOS | LEMMA
    original: str
    corrected: str
    rule_id: str


class StatsRow(NamedTuple):
    field: str
    original: str
    corrected: str
    count: int
    ratio: float


class ConversionStats(NamedTuple):
    total_tokens: int
    rows: tuple[StatsRow, ...]

    def for_field(self, field: str) -> tuple[StatsRow, ...]:
        return tuple(r for r in self.rows if r.field == field)


_COMPLEMENT_STEMS = ("되", "아니")
# the words rule 5 retags from MAG to MAJ when one MAG morpheme makes the word
CONJUNCTIVE_ADVERBS = frozenset(
    ("그러나", "그리고", "하지만", "그런데", "그래서", "따라서", "그러므로", "또한")
)
_PREDICATE_TAGS = frozenset({"VV", "VA", "VX", "VCP", "VCN"})


_RECORD_ATTRIBUTES = {"UPOS": "upos", "XPOS": "xpos", "LEMMA": "lemma"}


def _retagged(morphemes: Sequence[Morpheme], index: int, tag: str) -> str:
    """The XPOS of `morphemes` with the tag at `index` replaced by `tag`."""
    tags = [m.tag for m in morphemes]
    tags[index] = tag
    return "+".join(tags)


def correct_sentence(
    sentence: Sentence, aux: Sequence[AuxAnnotation]
) -> tuple[Sentence, list[CorrectionRecord]]:
    """Apply the five correction rules to each token in turn; returns the new
    sentence, `sentence` itself when no rule changed it, and its records."""
    sid = sentence.sent_id or ""
    aux_by_token: dict[int, AuxAnnotation] = {}
    valid_ids = None  # built for the first entry of this sentence, if any
    for entry in aux:
        if entry.sent_id != sid:
            continue
        if valid_ids is None:
            valid_ids = {t.id for t in sentence.tokens}
        if entry.token_id not in valid_ids:
            raise CorrectionError(
                f"aux annotation references missing token {entry.sent_id}:{entry.token_id}"
            )
        aux_by_token[entry.token_id] = entry

    records: list[CorrectionRecord] = []

    def rewrite(field: str, value: str | None, rule_id: str) -> bool:
        """Set and record `field` of `token`; False, with no record, if
        `value` is None or no change."""
        nonlocal token
        attribute = _RECORD_ATTRIBUTES[field]
        original = getattr(token, attribute)
        if value is None or value == original:
            return False
        records.append(CorrectionRecord(sid, token.id, field, original, value, rule_id))
        token = token._replace(**{attribute: value})
        return True

    tokens: list[Token] = []
    for token in sentence.tokens:
        # `morphemes` is read again only after a rewrite of LEMMA or XPOS
        morphemes = token.morphemes

        # 1. external-analysis and NER reconciliation (needs a sidecar entry)
        annotation = aux_by_token.get(token.id)
        if annotation is not None:
            ext = annotation.ext_xpos
            form = token.form
            if ext and len(ext) == len(morphemes):
                if rewrite("XPOS", "+".join(ext), "ext-xpos"):
                    morphemes = token.morphemes
            # collapse a spurious segmentation (LEMMA or XPOS always changes)
            # when FORM, as LEMMA, reads back as one segment ("_" as none)
            elif ext and len(ext) == 1 and form != "_" and len(_split_plus(form)) == 1:
                rewrite("LEMMA", form, "ext-xpos")
                rewrite("XPOS", ext[0], "ext-xpos")
                morphemes = token.morphemes
            head = next((i for i, m in enumerate(morphemes) if m.tag in CANONICAL_UPOS), None)
            head_tag = None if head is None else morphemes[head].tag
            if head_tag == "NNG" and annotation.ner_label:
                rewrite("XPOS", _retagged(morphemes, head, "NNP"), "ner-propn")
                morphemes = token.morphemes
                rewrite("UPOS", "PROPN", "ner-propn")
            elif head_tag == "NNP" and not annotation.ner_label:
                rewrite("XPOS", _retagged(morphemes, head, "NNG"), "ner-common")
                morphemes = token.morphemes
                rewrite("UPOS", canonical_upos(morphemes), "ner-common")

        # 2. canonical UPOS from the lexical base morpheme
        rewrite("UPOS", canonical_upos(morphemes), "canonical-upos")

        # 3. XR is a noun fragment: normalize word-initial XR to NNG
        if morphemes and morphemes[0].tag == "XR" and (
            len(morphemes) == 1 or morphemes[1].tag in ("XSA", "XSN", "XSV")
        ):
            rewrite("XPOS", _retagged(morphemes, 0, "NNG"), "xr-noun")
            morphemes = token.morphemes

        # 4. complement marker before 되다/아니다: JKS -> JKC
        if morphemes and morphemes[-1].tag == "JKS" and morphemes[-1].surface in ("이", "가"):
            if token.head and 1 <= token.head <= len(sentence.tokens):
                stem = sentence.tokens[token.head - 1].morphemes[:1]
            else:  # no usable head: the stem of the first following predicate, if any
                for following in sentence.tokens[token.id:]:
                    stem = following.morphemes[:1]
                    if stem and stem[0].tag in _PREDICATE_TAGS:
                        break
                else:
                    stem = ()
            if stem and stem[0].surface in _COMPLEMENT_STEMS:
                rewrite("XPOS", _retagged(morphemes, len(morphemes) - 1, "JKC"), "complement-jkc")
                morphemes = token.morphemes

        # 5. conjunctive adverbs: MAG -> MAJ
        if len(morphemes) == 1 and morphemes[0].tag == "MAG":
            if token.form in CONJUNCTIVE_ADVERBS:
                rewrite("XPOS", _retagged(morphemes, 0, "MAJ"), "conj-adverb")

        tokens.append(token)
    if not records:  # no token changed
        return sentence, records
    # from a list, at its final size: `tuple()` of a generator resizes a
    # 10-slot tuple, and each one that dies stays in CPython's free list of
    # its final size, up to 2,000 per size, a stock that grows with the input
    return Sentence(sentence.comments, tuple(tokens), sentence.extras), records


def apply_records(sentence: Sentence, records: Iterable[CorrectionRecord]) -> Sentence:
    """Replay correction records onto a sentence (provenance check).

    Each record must name a token of the sentence and hold, as its original,
    that token's current value of the field; otherwise `CorrectionError`."""
    tokens = list(sentence.tokens)
    sid = sentence.sent_id or ""
    for rec in records:
        if rec.sent_id != sid:
            continue
        attribute = _RECORD_ATTRIBUTES.get(rec.field)
        if attribute is None:
            raise CorrectionError(f"unknown record field {rec.field!r}")
        where = f"record {rec.sent_id or '_'}:{rec.token_id}"
        if not 1 <= rec.token_id <= len(tokens):
            raise CorrectionError(f"{where} names no token of the {len(tokens)}-token sentence")
        token = tokens[rec.token_id - 1]
        current = getattr(token, attribute)
        if current != rec.original:
            raise CorrectionError(
                f"{where} expects {rec.field} {rec.original!r}, the token has {current!r}"
            )
        tokens[rec.token_id - 1] = token._replace(**{attribute: rec.corrected})
    return Sentence(sentence.comments, tuple(tokens), sentence.extras)


def aggregate_stats(records: Iterable[CorrectionRecord], total_tokens: int) -> ConversionStats:
    """Group records into (field, original -> corrected) conversion counts."""
    return _stats(*_tally(records), total_tokens)


def log_stats(source: str | TextIO, total_tokens: int | None = None) -> ConversionStats:
    """`aggregate_stats` of a log's records, counted as they are read, over
    `total_tokens` or, without it, the sum of the log's `# total_tokens`
    headers.  Memory
    holds the distinct (field, original, corrected) keys and the corrected
    tokens, not the records.  A `str` is read with universal newlines, as
    the CLI reads a file."""
    log = _LogReader(source)
    counts, corrected_tokens = _tally(log)
    if total_tokens is None:
        total_tokens = log.total
    if total_tokens is None:
        raise CorrectionError("no total_tokens header in the log; pass --total-tokens")
    return _stats(counts, corrected_tokens, total_tokens)


# A token id below this bound goes into its sentence's bit set of corrected
# ids; a larger one, which no treebank holds, into a set of its own.
_BIT_SET_BOUND = 4096


def _tally(records: Iterable[CorrectionRecord]) -> tuple[dict[tuple[str, str, str], int], int]:
    """The count of each (field, original, corrected) key, and the number of
    distinct (sent_id, token_id) pairs, of `records`."""
    counts: dict[tuple[str, str, str], int] = {}
    bits: dict[str, int] = {}  # sent_id -> bit set of its corrected token ids
    far: set[tuple[str, int]] = set()
    for rec in records:
        key = (rec.field, rec.original, rec.corrected)
        counts[key] = counts.get(key, 0) + 1
        if rec.token_id < _BIT_SET_BOUND:
            bits[rec.sent_id] = bits.get(rec.sent_id, 0) | 1 << rec.token_id
        else:
            far.add((rec.sent_id, rec.token_id))
    return counts, sum(ids.bit_count() for ids in bits.values()) + len(far)


def _stats(
    counts: dict[tuple[str, str, str], int], corrected_tokens: int, total_tokens: int
) -> ConversionStats:
    if total_tokens < 0:  # 0 is an empty corpus, which `correct --records` logs
        raise CorrectionError("total_tokens must not be negative")
    if total_tokens < corrected_tokens:
        raise CorrectionError(
            f"total_tokens {total_tokens} is below the {corrected_tokens} corrected tokens"
        )
    rows = [
        StatsRow(field, original, corrected, count, count / total_tokens)
        for (field, original, corrected), count in counts.items()
    ]
    rows.sort(key=lambda r: (-r.count, r.field, r.original, r.corrected))
    return ConversionStats(total_tokens, tuple(rows))


def format_stats(stats: ConversionStats) -> str:
    """Tab-separated conversion report, one section per corrected field."""
    lines = [f"# total_tokens\t{stats.total_tokens}"]
    for field_name in ("UPOS", "XPOS", "LEMMA"):
        rows = stats.for_field(field_name)
        if field_name == "LEMMA" and not rows:
            continue
        lines.append(f"# {field_name} corrections")
        lines.append("original\tcorrected\tcount\tratio")
        for row in rows:
            lines.append(f"{row.original}\t{row.corrected}\t{row.count}\t{row.ratio:.4f}")
    return "\n".join(lines) + "\n"


def log_header(total_tokens: int) -> str:
    """The two header lines of a correction log over `total_tokens` tokens."""
    return (
        f"# total_tokens\t{total_tokens}\n"
        "# sent_id\ttoken_id\tfield\toriginal\tcorrected\trule_id\n"
    )


def format_log_rows(records: Iterable[CorrectionRecord]) -> str:
    """The log rows of `records`; raises if a sent_id holds a tab, which would
    split its row, is "_", which the log writes for no sent_id, or starts
    with "#", which makes its row read back as a comment."""
    rows = []
    for rec in records:
        if "\t" in rec.sent_id:
            raise CorrectionError(f"sent_id {rec.sent_id!r} holds a tab, which splits a log row")
        if rec.sent_id == "_":
            raise CorrectionError("sent_id '_' reads back from a log as no sent_id")
        if rec.sent_id.startswith("#"):
            raise CorrectionError(
                f"sent_id {rec.sent_id!r} starts with '#', which reads back from a log as a comment"
            )
        rows.append(
            f"{rec.sent_id or '_'}\t{rec.token_id}\t{rec.field}\t"
            f"{rec.original or '_'}\t{rec.corrected or '_'}\t{rec.rule_id}\n"
        )
    return "".join(rows)


def read_records(source: str | TextIO) -> tuple[list[CorrectionRecord], int | None]:
    """The records of a log and the sum of its `# total_tokens` headers (None
    without one); a `str` is read with universal newlines, as the CLI reads a
    file."""
    log = _LogReader(source)
    records = list(log)
    return records, log.total


class _LogReader:
    """The records of a correction log, read one at a time as they are
    iterated; `total` then holds the sum of the `# total_tokens` headers
    read, so logs written one after another read as one log over all their
    tokens, or None when there was none."""

    def __init__(self, source: str | TextIO):
        self._stream = _text_stream(source)
        self.total: int | None = None

    def __iter__(self) -> Iterator[CorrectionRecord]:
        for lineno, raw in enumerate(self._stream, start=1):
            line = raw.rstrip("\n")
            if not line:
                continue
            if line.startswith("#"):
                parts = line[1:].split()
                if len(parts) == 2 and parts[0] == "total_tokens":
                    tokens = _parse_int(parts[1], "total_tokens", lineno)
                    self.total = tokens + (self.total or 0)
                continue
            fields = line.split("\t")
            if len(fields) != 6:
                raise CorrectionError(f"expected 6 columns, got {len(fields)}", line=lineno)
            sent_id, token_id, field_name, original, corrected, rule_id = fields
            token_number = _parse_token_id(token_id, lineno)
            yield CorrectionRecord(
                sent_id="" if sent_id == "_" else sent_id,
                token_id=token_number,
                field=field_name,
                original="" if original == "_" else original,
                corrected="" if corrected == "_" else corrected,
                rule_id=rule_id,
            )


def read_aux_sidecar(source: str | TextIO) -> list[AuxAnnotation]:
    """Sidecar format: sent_id, token_id, ner_label, ext_xpos ('_' = absent);
    at most one entry per token.  A `str` is read with universal newlines, as
    the CLI reads a file."""
    stream = _text_stream(source)
    entries: list[AuxAnnotation] = []
    # "token_id<TAB>sent_id" -> line: a string key, freed to the allocator,
    # where a (sent_id, token_id) tuple would stay in the interpreter's
    # 2-tuple free list after the read
    first_lines: dict[str, int] = {}
    # one object per distinct sent_id or label, and per distinct ext_xpos cell
    strings: dict[str, str] = {}
    ext_cells: dict[str, tuple[str, ...]] = {}
    for lineno, raw in enumerate(stream, start=1):
        line = raw.rstrip("\n")
        if not line or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 4:
            raise CorrectionError(f"expected 4 columns, got {len(fields)}", line=lineno)
        sent_id, token_id, ner_label, ext_xpos = fields
        if not sent_id:
            raise CorrectionError("empty sent_id", line=lineno)
        ext = ext_cells.get(ext_xpos)
        if ext is None and ext_xpos != "_":
            ext = ext_cells[ext_xpos] = tuple(ext_xpos.split("+"))
            for code in ext:
                if code not in SEJONG_TAGS:
                    raise CorrectionError(f"unknown XPOS tag {code!r}", line=lineno)
        token_number = _parse_token_id(token_id, lineno)
        sent_id = strings.setdefault(sent_id, sent_id)
        first = first_lines.setdefault(f"{token_number}\t{sent_id}", lineno)
        if first != lineno:
            raise CorrectionError(
                f"second aux entry for token {sent_id}:{token_number} (first on line {first})",
                line=lineno,
            )
        entries.append(
            AuxAnnotation(
                sent_id=sent_id,
                token_id=token_number,
                ner_label=None if ner_label == "_" else strings.setdefault(ner_label, ner_label),
                ext_xpos=ext,
            )
        )
    return entries
