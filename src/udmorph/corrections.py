"""Systematic POS/XPOS corrections and conversion statistics.

Five correction rules run in a fixed order per token; later rules see the
earlier rules' output.  Corrections touch UPOS, XPOS and LEMMA only - ids,
heads and dependency relations are never modified.  Every change yields a
CorrectionRecord, and replaying the records against the original sentence
reproduces the corrected sentence exactly.
"""

from __future__ import annotations

import io
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence, TextIO

from .conllu import (
    CANONICAL_UPOS,
    SEJONG_TAGS,
    Sentence,
    Token,
    UdmorphError,
    _split_plus,
    canonical_upos,
)

if TYPE_CHECKING:  # annotations only: `stats` runs no rule and loads no `rules`
    from .rules import RulePack


class CorrectionError(UdmorphError):
    """Malformed aux sidecar or correction log, or a record that fits no token."""


def _parse_int(text: str, name: str, lineno: int) -> int:
    try:
        return int(text)
    except ValueError:
        raise CorrectionError(f"{name} must be an integer, got {text!r}", line=lineno) from None


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
_PREDICATE_TAGS = frozenset({"VV", "VA", "VX", "VCP", "VCN"})


def _first_content_index(token: Token) -> int | None:
    for i, m in enumerate(token.morphemes):
        if m.tag in CANONICAL_UPOS:
            return i
    return None


def _set_tag(token: Token, index: int, tag: str) -> Token:
    tags = [m.tag for m in token.morphemes]
    tags[index] = tag
    return token.replace(xpos="+".join(tags))


def _reads_as_one_morpheme(form: str) -> bool:
    """True iff FORM, written as LEMMA, reads back as exactly one segment
    ("_" reads back as an empty LEMMA)."""
    return form != "_" and len(_split_plus(form)) == 1


def _is_complement_head(token: Token) -> bool:
    return bool(token.morphemes) and token.morphemes[0].surface in _COMPLEMENT_STEMS


def correct_token(
    token: Token,
    sentence: Sentence,
    aux: AuxAnnotation | None,
    pack: RulePack,
    records: list[CorrectionRecord],
    sid: str,
) -> Token:
    def record(field: str, original: str, corrected: str, rule_id: str) -> None:
        records.append(CorrectionRecord(sid, token.id, field, original, corrected, rule_id))

    # 1. external-analysis and NER reconciliation (needs a sidecar entry)
    if aux is not None:
        if aux.ext_xpos:
            if len(aux.ext_xpos) == len(token.morphemes):
                new_xpos = "+".join(aux.ext_xpos)
                if new_xpos != token.xpos:
                    record("XPOS", token.xpos, new_xpos, "ext-xpos")
                    token = token.replace(xpos=new_xpos)
            elif len(aux.ext_xpos) == 1 and _reads_as_one_morpheme(token.form):
                # collapse a spurious segmentation: the word is one unit
                if token.lemma != token.form:
                    record("LEMMA", token.lemma, token.form, "ext-xpos")
                if token.xpos != aux.ext_xpos[0]:
                    record("XPOS", token.xpos, aux.ext_xpos[0], "ext-xpos")
                token = token.replace(lemma=token.form, xpos=aux.ext_xpos[0])
        head_index = _first_content_index(token)
        if head_index is not None:
            head_tag = token.morphemes[head_index].tag
            if head_tag == "NNG" and aux.ner_label:
                old_xpos = token.xpos
                token = _set_tag(token, head_index, "NNP")
                record("XPOS", old_xpos, token.xpos, "ner-propn")
                if token.upos != "PROPN":
                    record("UPOS", token.upos, "PROPN", "ner-propn")
                    token = token.replace(upos="PROPN")
            elif head_tag == "NNP" and not aux.ner_label:
                old_xpos = token.xpos
                token = _set_tag(token, head_index, "NNG")
                record("XPOS", old_xpos, token.xpos, "ner-common")
                upos = canonical_upos(token.morphemes)
                if upos is not None and upos != token.upos:
                    record("UPOS", token.upos, upos, "ner-common")
                    token = token.replace(upos=upos)

    # 2. canonical UPOS from the lexical base morpheme
    upos = canonical_upos(token.morphemes)
    if upos is not None and upos != token.upos:
        record("UPOS", token.upos, upos, "canonical-upos")
        token = token.replace(upos=upos)

    # 3. XR is a noun fragment: normalize word-initial XR to NNG
    tags = [m.tag for m in token.morphemes]
    if tags and tags[0] == "XR" and (len(tags) == 1 or tags[1] in ("XSA", "XSN", "XSV")):
        old_xpos = token.xpos
        token = _set_tag(token, 0, "NNG")
        record("XPOS", old_xpos, token.xpos, "xr-noun")

    # 4. complement marker before 되다/아니다: JKS -> JKC
    morphemes = token.morphemes
    if morphemes and morphemes[-1].tag == "JKS" and morphemes[-1].surface in ("이", "가"):
        head_token = None
        if token.head and 1 <= token.head <= len(sentence.tokens):
            head_token = sentence.tokens[token.head - 1]
        else:
            for following in sentence.tokens[token.id:]:
                if following.morphemes and following.morphemes[0].tag in _PREDICATE_TAGS:
                    head_token = following
                    break
        if head_token is not None and _is_complement_head(head_token):
            old_xpos = token.xpos
            token = _set_tag(token, len(morphemes) - 1, "JKC")
            record("XPOS", old_xpos, token.xpos, "complement-jkc")

    # 5. conjunctive adverbs: MAG -> MAJ
    morphemes = token.morphemes
    if (
        len(morphemes) == 1
        and morphemes[0].tag == "MAG"
        and token.form in pack.conjunctive_adverbs
    ):
        old_xpos = token.xpos
        token = _set_tag(token, 0, "MAJ")
        record("XPOS", old_xpos, token.xpos, "conj-adverb")

    return token


def correct_sentence(
    sentence: Sentence, aux: Sequence[AuxAnnotation], pack: RulePack
) -> tuple[Sentence, list[CorrectionRecord]]:
    """Apply every correction rule; returns the new sentence and its records."""
    sid = sentence.sent_id or ""
    aux_by_token: dict[int, AuxAnnotation] = {}
    valid_ids = {t.id for t in sentence.tokens}
    for entry in aux:
        if sid and entry.sent_id != sid:
            continue
        if entry.token_id not in valid_ids:
            raise CorrectionError(
                f"aux annotation references missing token {entry.sent_id}:{entry.token_id}"
            )
        aux_by_token[entry.token_id] = entry

    records: list[CorrectionRecord] = []
    tokens = tuple(
        correct_token(token, sentence, aux_by_token.get(token.id), pack, records, sid)
        for token in sentence.tokens
    )
    return Sentence(sentence.comments, tokens, sentence.extras), records


_RECORD_ATTRIBUTES = {"UPOS": "upos", "XPOS": "xpos", "LEMMA": "lemma"}


def apply_records(sentence: Sentence, records: Iterable[CorrectionRecord]) -> Sentence:
    """Replay correction records onto a sentence (provenance check).

    Each record must name a token of the sentence and hold, as its original,
    that token's current value of the field; otherwise `CorrectionError`."""
    tokens = list(sentence.tokens)
    sid = sentence.sent_id or ""
    for rec in records:
        if sid and rec.sent_id != sid:
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
        tokens[rec.token_id - 1] = token.replace(**{attribute: rec.corrected})
    return Sentence(sentence.comments, tuple(tokens), sentence.extras)


def aggregate_stats(records: Sequence[CorrectionRecord], total_tokens: int) -> ConversionStats:
    """Group records into (field, original -> corrected) conversion counts."""
    if total_tokens <= 0:
        raise CorrectionError("total_tokens must be positive")
    distinct_tokens = {(r.sent_id, r.token_id) for r in records}
    if total_tokens < len(distinct_tokens):
        raise CorrectionError(
            f"total_tokens {total_tokens} is below the {len(distinct_tokens)} corrected tokens"
        )
    counts: dict[tuple[str, str, str], int] = {}
    for rec in records:
        key = (rec.field, rec.original, rec.corrected)
        counts[key] = counts.get(key, 0) + 1
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


def write_records(
    records: Sequence[CorrectionRecord], total_tokens: int, sink: TextIO
) -> None:
    """Write the log, or raise before writing anything if a sent_id holds a
    tab, which would split its row."""
    for rec in records:
        if "\t" in rec.sent_id:
            raise CorrectionError(f"sent_id {rec.sent_id!r} holds a tab, which splits a log row")
    sink.write(f"# total_tokens\t{total_tokens}\n")
    sink.write("# sent_id\ttoken_id\tfield\toriginal\tcorrected\trule_id\n")
    for rec in records:
        sink.write(
            f"{rec.sent_id or '_'}\t{rec.token_id}\t{rec.field}\t"
            f"{rec.original or '_'}\t{rec.corrected or '_'}\t{rec.rule_id}\n"
        )


def read_records(source: str | TextIO) -> tuple[list[CorrectionRecord], int | None]:
    stream = io.StringIO(source) if isinstance(source, str) else source
    records: list[CorrectionRecord] = []
    total = None
    for lineno, raw in enumerate(stream, start=1):
        line = raw.rstrip("\n")
        if not line:
            continue
        if line.startswith("#"):
            parts = line[1:].split()
            if len(parts) == 2 and parts[0] == "total_tokens":
                total = _parse_int(parts[1], "total_tokens", lineno)
            continue
        fields = line.split("\t")
        if len(fields) != 6:
            raise CorrectionError(f"expected 6 columns, got {len(fields)}", line=lineno)
        sent_id, token_id, field_name, original, corrected, rule_id = fields
        token_number = _parse_int(token_id, "token_id", lineno)
        if token_number < 1:
            raise CorrectionError(f"token_id must be at least 1, got {token_number}", line=lineno)
        records.append(
            CorrectionRecord(
                sent_id="" if sent_id == "_" else sent_id,
                token_id=token_number,
                field=field_name,
                original="" if original == "_" else original,
                corrected="" if corrected == "_" else corrected,
                rule_id=rule_id,
            )
        )
    return records, total


def read_aux_sidecar(source: str | TextIO) -> list[AuxAnnotation]:
    """Sidecar format: sent_id, token_id, ner_label, ext_xpos ('_' = absent);
    at most one entry per token."""
    stream = io.StringIO(source) if isinstance(source, str) else source
    entries: list[AuxAnnotation] = []
    first_lines: dict[tuple[str, int], int] = {}
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
        ext: tuple[str, ...] | None
        if ext_xpos == "_":
            ext = None
        else:
            ext = tuple(ext_xpos.split("+"))
            for code in ext:
                if code not in SEJONG_TAGS:
                    raise CorrectionError(f"unknown XPOS tag {code!r}", line=lineno)
        token_number = _parse_int(token_id, "token_id", lineno)
        first = first_lines.setdefault((sent_id, token_number), lineno)
        if first != lineno:
            raise CorrectionError(
                f"second aux entry for token {sent_id}:{token_number} (first on line {first})",
                line=lineno,
            )
        entries.append(
            AuxAnnotation(
                sent_id=sent_id,
                token_id=token_number,
                ner_label=None if ner_label == "_" else ner_label,
                ext_xpos=ext,
            )
        )
    return entries
