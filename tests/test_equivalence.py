"""The rewritten parse, prediction reader, `validate`, `enrich_sentence`,
ending transcription, `correct_sentence` and `to_it_record` against the
versions they replaced, kept here as they were, with the cells of a
CoNLL-U row as they were spelled: on any input each must give the same
result, or the same error text and line, or the same diagnostics in the
same order.  The old versions call the helpers the rewrite left as they
were (`_split_plus`, `_misalignment`, `_parse_feats`, `_id_error`,
`_long_int`, `_context_matches`, `_emitted`, `_retagged`) from the
package."""

import contextlib
import copy
import io
import re

from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import BUILT_SENTENCES, PREDICTION_TEXT, SEJONG_TREEBANK, make_sentence
from udmorph import conllu, itdata
from udmorph.conllu import (
    CANONICAL_UPOS,
    _EMPTY_ID_RE,
    _FEAT_KEY_RE,
    _FEAT_VALUE_RE,
    _RANGE_ID_RE,
    _WORD_ID_RE,
    COLUMN_COUNT,
    SEJONG_TAGS,
    UD_RELATIONS,
    UPOS_TAGS,
    ConlluError,
    Diagnostic,
    FeatureBag,
    Morpheme,
    Sentence,
    Token,
    _id_error,
    _misalignment,
    _parse_feats,
    _split_plus,
    canonical_upos,
)
from udmorph.corrections import (
    _COMPLEMENT_STEMS,
    _PREDICATE_TAGS,
    _RECORD_ATTRIBUTES,
    CONJUNCTIVE_ADVERBS,
    AuxAnnotation,
    CorrectionError,
    CorrectionRecord,
    _retagged,
    correct_sentence,
)
from udmorph.itdata import _INT_RE, _MAX_DIGITS, _SMALL_INT_BOUND, ParsedRow, _long_int
from udmorph.rules import (
    _context_matches,
    _emitted,
    _ending_transcription,
    _misc_with_flag,
    enrich_sentence,
)
from udmorph.validation import _cycle_entries


def _old_token_cells(lemma, upos, xpos, feats, lenient):
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


def _old_iter_sentences(source, *, lenient=False):
    stream = io.StringIO(source, newline=None)
    comments, tokens, extras = [], [], []
    unknown_tags = {}
    id_texts = ["0"]

    def flush(lineno):
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
        raw_id, form, lemma, upos, xpos, feats, head, deprel, deps, misc = columns
        token_id = len(tokens) + 1
        if token_id == len(id_texts):
            id_texts.append(str(token_id))
        if raw_id != id_texts[token_id]:
            if _WORD_ID_RE.match(raw_id):
                raise _id_error(raw_id, token_id, lineno)
            if not (_RANGE_ID_RE.match(raw_id) or _EMPTY_ID_RE.match(raw_id)):
                raise ConlluError(f"invalid token id {raw_id!r}", lineno)
            extras.append((len(tokens), line))
            continue
        try:
            lemma, xpos, upos, bag, unknown = _old_token_cells(lemma, upos, xpos, feats, lenient)
        except ConlluError as error:
            raise ConlluError(str(error), lineno) from None
        for code in unknown:
            unknown_tags.setdefault(code, [lineno, 0])[1] += 1
        if head == "_":
            head_value = None
        elif head == "0" or _WORD_ID_RE.match(head):
            try:
                head_value = int(head)
            except ValueError:
                raise ConlluError(f"invalid HEAD value: {len(head)} digits", lineno) from None
        else:
            raise ConlluError(f"invalid HEAD value {head!r}", lineno)
        tokens.append(
            Token(token_id, form, lemma, xpos, upos, bag, head_value,
                  "" if deprel == "_" else deprel, deps, misc)
        )
    if comments or tokens or extras:
        yield flush(lineno + 1)
    for code, (first_line, count) in unknown_tags.items():
        conllu.warn(f"unknown XPOS tag {code!r} mapped to NA {count} time(s), first on line {first_line}")


def _old_from_it_output(text):
    rows = []
    for line in text.splitlines():
        if not line.strip():
            continue
        fields = line.split("\t") if "\t" in line else line.split()
        first = fields[0].strip()
        if not _INT_RE.match(first):
            continue
        row_id = int(first) if len(first) <= _MAX_DIGITS else _long_int(first)
        if row_id < 1:
            continue
        head = None
        if len(fields) > 6 and _INT_RE.match(cell := fields[6].strip()):
            head = int(cell) if len(cell) <= _MAX_DIGITS else _long_int(cell)
        deprel = None
        if len(fields) > 7:
            value = fields[7].strip()
            if value and value != "_":
                deprel = value
        rows.append(ParsedRow(id=row_id, head=head, deprel=deprel))
    return rows


def _old_token_columns(token):
    """A token's ten CoNLL-U cells, an empty value written `_`: the
    reference spelling of a row."""
    return (
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


def _old_to_it_record(sentence, instruction=itdata.DEFAULT_INSTRUCTION):
    if not sentence.tokens:
        raise ValueError("cannot convert an empty sentence")
    input_rows = []
    output_rows = []
    for token in sentence.tokens:
        columns = _old_token_columns(token)
        input_rows.append("\t".join(columns[:6] + ("head", "rel")))
        output_rows.append("\t".join(columns[:8]))
    return itdata.ITRecord(
        instruction=instruction,
        input="".join(row + "\n" for row in input_rows),
        output="".join(row + "\n" for row in output_rows),
    )


def _old_check_token(token, report):
    segments, tags = _split_plus(token.lemma), _split_plus(token.xpos)
    problem = _misalignment(segments, tags, lenient=False)
    if problem:
        report(token.id, "morph-alignment", problem)
    for code in tags:
        if code not in SEJONG_TAGS:
            report(token.id, "xpos-tag", f"unknown XPOS tag {code!r}")
    for surface in segments:
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


def _old_cycle_entries(heads):
    entries = {}
    for start in heads:
        path = []
        on_path = set()
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


def _old_validate(sentences, start=1):
    diagnostics = []
    for index, sentence in enumerate(sentences, start=start):
        sent_id = sentence.sent_id or ""
        sid = sent_id if sent_id and "\t" not in sent_id else str(index)

        def report(token_id, rule, message, _sid=sid):
            diagnostics.append(Diagnostic(_sid, token_id, rule, message))

        if "\t" in sent_id:
            report(None, "sent-id", f"sent_id {sent_id!r} holds a tab")
        n = len(sentence.tokens)
        for extra_index, _ in sentence.extras:
            if not 0 <= extra_index <= n:
                report(None, "extra-position", f"extra line at index {extra_index} outside 0..{n}")
        for position, token in enumerate(sentence.tokens, start=1):
            if token.id != position:
                report(token.id, "id-sequence", f"expected id {position}, got {token.id}")
            _old_check_token(token, report)
        roots = [t for t in sentence.tokens if t.head == 0]
        if n and not roots:
            report(None, "root-count", "no root token (head == 0)")
        elif len(roots) > 1:
            report(None, "root-count", f"multiple roots: tokens {[t.id for t in roots]}")
        for token in sentence.tokens:
            if token.head is None:
                report(token.id, "head-missing", "missing HEAD value")
            elif not 0 <= token.head <= n:
                report(token.id, "head-range", f"head {token.head} outside 0..{n}")
            if token.head == 0 and token.deprel != "root":
                report(token.id, "root-deprel", f"head 0 requires deprel 'root', got {token.deprel!r}")
            if token.head not in (0, None) and token.deprel == "root":
                report(token.id, "root-deprel", f"deprel 'root' requires head 0, got {token.head}")
            if token.head not in (0, None) and not token.deprel:
                report(token.id, "deprel-missing", "missing DEPREL value")
        entries = _old_cycle_entries({t.id: t.head for t in sentence.tokens})
        for token in sentence.tokens:
            through = entries.get(token.id)
            if through is not None:
                report(token.id, "head-cycle", f"head cycle through token {through}")
    return diagnostics


_OLD_ONSETS = (
    "g", "kk", "n", "d", "tt", "r", "m", "b", "pp",
    "s", "ss", "", "j", "jj", "ch", "k", "t", "p", "h",
)
_OLD_VOWELS = (
    "a", "ae", "ya", "yae", "eo", "e", "yeo", "ye", "o", "wa",
    "wae", "oe", "yo", "u", "wo", "we", "wi", "yu", "eu", "ui", "i",
)
_OLD_CODAS = (
    "", "k", "k", "k", "n", "n", "n", "t", "l", "k", "m",
    "p", "l", "l", "p", "l", "m", "p", "p", "t", "t",
    "ng", "t", "t", "k", "t", "p", "t",
)
_OLD_COMPAT_CONSONANTS = {
    "ㄱ": "k", "ㄲ": "kk", "ㄳ": "k", "ㄴ": "n", "ㄵ": "n", "ㄶ": "n",
    "ㄷ": "t", "ㄸ": "tt", "ㄹ": "l", "ㄺ": "k", "ㄻ": "m", "ㄼ": "l",
    "ㄽ": "l", "ㄾ": "l", "ㄿ": "p", "ㅀ": "l", "ㅁ": "m", "ㅂ": "p",
    "ㅄ": "p", "ㅅ": "s", "ㅆ": "ss", "ㅇ": "ng", "ㅈ": "j", "ㅉ": "jj",
    "ㅊ": "ch", "ㅋ": "k", "ㅌ": "t", "ㅍ": "p", "ㅎ": "h",
}


def _old_romanize(text):
    """The `romanize` module's function: hangul syllables and jamo
    romanized, other characters passed through."""
    parts = []
    for ch in text:
        code = ord(ch)
        if 0 <= code - 0xAC00 < 11172:
            onset, rest = divmod(code - 0xAC00, 21 * 28)
            vowel, coda = divmod(rest, 28)
            parts.append(_OLD_ONSETS[onset] + _OLD_VOWELS[vowel] + _OLD_CODAS[coda])
        elif ch in _OLD_COMPAT_CONSONANTS:
            parts.append(_OLD_COMPAT_CONSONANTS[ch])
        elif 0 <= code - 0x314F < 21:
            parts.append(_OLD_VOWELS[code - 0x314F])
        else:
            parts.append(ch)
    return "".join(parts)


def _old_transcription(surface):
    """An ending's transcription as it was made: romanized, then stripped of
    what `romanize` passed through and a FEATS value cannot hold."""
    return re.sub(r"[^A-Za-z0-9]", "", _old_romanize(surface))


def _old_ending_transcription(morphemes):
    if not morphemes or morphemes[-1].tag != "EC":
        return None
    value = _old_transcription(morphemes[-1].surface)
    return ("Case", value) if value else None


def _old_assign_features(sentence, pack):
    verdicts = [pack.verdict(token.morphemes) for token in sentence.tokens]
    tokens = []
    for i, token in enumerate(sentence.tokens):
        verdict = verdicts[i]
        bag = pack._winners_bag(_emitted(verdict.winners))  # the old `Verdict.bag`
        if verdict.lookahead:
            window = [v.first for v in verdicts[i + 1 : i + 3] if v.first is not None]
            context = {}
            for rule in verdict.lookahead:
                if _context_matches(rule, window):
                    for key, _ in rule.emits:
                        context.setdefault(key, rule)
            if context:
                bag = pack._winners_bag(_emitted(verdict.winners + tuple(context.items())))
        tokens.append(token.with_feats(bag))
    return Sentence(sentence.comments, tuple(tokens), sentence.extras)


def _old_enrich_sentence(sentence, pack):
    enriched = _old_assign_features(sentence, pack)
    tokens = list(enriched.tokens)
    for i, token in enumerate(enriched.tokens):
        verdict = pack.verdict(token.morphemes)
        # the old `Verdict.ending`, with ㅃ, which the old table lacked and so
        # dropped, read as the letters pp
        morphemes = token.morphemes[:-1] + tuple(
            [Morpheme(m.surface.replace("ㅃ", "pp"), m.tag) for m in token.morphemes[-1:]]
        )
        transcription = None if verdict.winners else _old_ending_transcription(morphemes)
        ending = None if transcription is None else FeatureBag.from_conllu("=".join(transcription))
        if ending is not None and not token.feats:
            tokens[i] = token = token.with_feats(ending)
        if token.form in verdict.functional:
            misc = _misc_with_flag(token.misc, "Functional", "Yes")
            if misc != token.misc:
                tokens[i] = token.with_misc(misc)
    return Sentence(enriched.comments, tuple(tokens), enriched.extras)


def _old_correct_token(token, sentence, aux, records, sid):
    def rewrite(field, value, rule_id):
        nonlocal token
        attribute = _RECORD_ATTRIBUTES[field]
        original = getattr(token, attribute)
        if value is None or value == original:
            return False
        records.append(CorrectionRecord(sid, token.id, field, original, value, rule_id))
        token = token._replace(**{attribute: value})
        return True

    morphemes = token.morphemes
    if aux is not None:
        ext = aux.ext_xpos
        if ext and len(ext) == len(morphemes):
            if rewrite("XPOS", "+".join(ext), "ext-xpos"):
                morphemes = token.morphemes
        # the old `_reads_as_one_morpheme(token.form)`
        elif ext and len(ext) == 1 and token.form != "_" and len(_split_plus(token.form)) == 1:
            rewrite("LEMMA", token.form, "ext-xpos")
            rewrite("XPOS", ext[0], "ext-xpos")
            morphemes = token.morphemes
        head = next((i for i, m in enumerate(morphemes) if m.tag in CANONICAL_UPOS), None)
        head_tag = None if head is None else morphemes[head].tag
        if head_tag == "NNG" and aux.ner_label:
            rewrite("XPOS", _retagged(morphemes, head, "NNP"), "ner-propn")
            morphemes = token.morphemes
            rewrite("UPOS", "PROPN", "ner-propn")
        elif head_tag == "NNP" and not aux.ner_label:
            rewrite("XPOS", _retagged(morphemes, head, "NNG"), "ner-common")
            morphemes = token.morphemes
            rewrite("UPOS", canonical_upos(morphemes), "ner-common")
    rewrite("UPOS", canonical_upos(morphemes), "canonical-upos")
    if morphemes and morphemes[0].tag == "XR" and (
        len(morphemes) == 1 or morphemes[1].tag in ("XSA", "XSN", "XSV")
    ):
        rewrite("XPOS", _retagged(morphemes, 0, "NNG"), "xr-noun")
        morphemes = token.morphemes
    if morphemes and morphemes[-1].tag == "JKS" and morphemes[-1].surface in ("이", "가"):
        if token.head and 1 <= token.head <= len(sentence.tokens):
            stem = sentence.tokens[token.head - 1].morphemes[:1]
        else:
            for following in sentence.tokens[token.id:]:
                stem = following.morphemes[:1]
                if stem and stem[0].tag in _PREDICATE_TAGS:
                    break
            else:
                stem = ()
        if stem and stem[0].surface in _COMPLEMENT_STEMS:
            rewrite("XPOS", _retagged(morphemes, len(morphemes) - 1, "JKC"), "complement-jkc")
            morphemes = token.morphemes
    if len(morphemes) == 1 and morphemes[0].tag == "MAG" and token.form in CONJUNCTIVE_ADVERBS:
        rewrite("XPOS", _retagged(morphemes, 0, "MAJ"), "conj-adverb")
    return token


def _old_correct_sentence(sentence, aux):
    sid = sentence.sent_id or ""
    aux_by_token = {}
    valid_ids = None
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
    records = []
    tokens = [
        _old_correct_token(token, sentence, aux_by_token.get(token.id), records, sid)
        for token in sentence.tokens
    ]
    if not records:
        return sentence, records
    return Sentence(sentence.comments, tuple(tokens), sentence.extras), records


# -- parse ------------------------------------------------------------------

_LONG_ID = "9" * 30
_CELL_SWAPS = {
    0: ["0", "01", "x", "1-", "2-3", "1.1", "3", "12", _LONG_ID, ""],  # id
    2: ["_", "a++b", "학교+가", "+", "x y"],  # LEMMA
    3: ["Noun", "_", ""],  # UPOS
    4: ["ZZZ", "NNG+ZZZ", "NNG+JKS", "_", "+", "EF"],  # XPOS
    5: ["Case", "a=b=c", "Case=Nom", "_", "b=1|a=2"],  # FEATS
    6: ["01", "-1", "_", _LONG_ID, "0", "1", "2", "5", "255", "256", "2000", "x", ""],  # HEAD
    7: ["_", "root", "acl:relcl"],  # DEPREL
}


@st.composite
def _mutated_blocks(draw):
    """SEJONG_TREEBANK text with a few lines changed: a column dropped or
    added, a comment or blank line inserted, or one cell swapped for a bad
    or odd value (ids, heads `01`, `-1`, `_` and a 30-digit one, tags,
    alignment, FEATS)."""
    lines = draw(SEJONG_TREEBANK).split("\n")
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        kind = draw(st.sampled_from(["drop", "add", "comment", "blank", "cell", "cell", "cell"]))
        columns = lines[i].split("\t")
        if kind == "drop" and len(columns) > 1:
            del columns[draw(st.integers(0, len(columns) - 1))]
        elif kind == "add":
            columns.insert(draw(st.integers(0, len(columns))), draw(st.sampled_from(["_", "x", ""])))
        elif kind == "comment":
            columns = ["# inserted"]
        elif kind == "blank":
            columns = [""]
        elif kind == "cell" and len(columns) == COLUMN_COUNT:
            column = draw(st.sampled_from(sorted(_CELL_SWAPS)))
            columns[column] = draw(st.sampled_from(_CELL_SWAPS[column]))
        lines[i] = "\t".join(columns)
    return "\n".join(lines)


def _parse_outcome(parse, text, lenient):
    """The sentences, or the error's text and line, and what went to stderr."""
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        try:
            result = list(parse(text, lenient=lenient))
        except ConlluError as error:
            result = (str(error), error.line)
    return result, stderr.getvalue()


@settings(max_examples=400, deadline=None)
@given(text=_mutated_blocks(), lenient=st.booleans())
def test_parse_gives_what_the_column_split_parser_gave(text, lenient):
    assert _parse_outcome(conllu.iter_sentences, text, lenient) == _parse_outcome(
        _old_iter_sentences, text, lenient
    )


@settings(max_examples=100, deadline=None)
@given(text=_mutated_blocks(), lenient=st.booleans())
def test_parse_with_a_cold_memo_gives_what_the_column_split_parser_gave(text, lenient):
    conllu._token_cells.cache_clear()
    assert _parse_outcome(conllu.iter_sentences, text, lenient) == _parse_outcome(
        _old_iter_sentences, text, lenient
    )


def test_a_line_of_eleven_columns_and_a_bad_id_reports_the_columns():
    line = "x\t학교\t학교\tNOUN\tNNG\t_\t0\troot\t_\t_\t_"
    for text in (f"{line}\n\n", f"1\t가\t가\tNOUN\tNNG\t_\t0\troot\t_\t_\n{line}\n\n"):
        assert _parse_outcome(conllu.iter_sentences, text, False)[0][0].endswith(
            "expected 10 tab-separated columns, got 11"
        )


# -- prediction reader ------------------------------------------------------

_NUMBER_CELLS = st.one_of(
    st.integers(0, 3 * _SMALL_INT_BOUND).map(str),
    st.sampled_from([str(_SMALL_INT_BOUND - 1), str(_SMALL_INT_BOUND), "0", "00", "007", "0255",
                     "0256", " 5", "5 ", "\u00a05", "\u0663", "\uff11\uff12", "+1", "-1", "1_0"]),
)
_PREDICTION_LINES = st.builds(
    str.join,
    st.sampled_from(["\t", " "]),
    st.lists(st.one_of(_NUMBER_CELLS, st.sampled_from(["_", "root", "nsubj", " ", ""])), max_size=9),
)


@settings(max_examples=400, deadline=None)
@given(text=st.one_of(PREDICTION_TEXT, st.lists(_PREDICTION_LINES, max_size=8).map("\n".join)))
def test_the_prediction_reader_gives_the_rows_the_regex_reader_gave(text):
    rows = itdata.from_it_output(text)
    assert rows == _old_from_it_output(text)
    assert all(type(row) is ParsedRow for row in rows)


# -- IT records -------------------------------------------------------------


def _record_outcome(sentence, instruction, to_it_record):
    try:
        return to_it_record(sentence, instruction)
    except ValueError as error:
        return str(error)


@settings(max_examples=300, deadline=None)
@given(
    sentences=st.one_of(
        st.lists(st.one_of(st.just(Sentence()), BUILT_SENTENCES), min_size=1, max_size=3),
        SEJONG_TREEBANK.map(conllu.parse_conllu),
    ),
    instruction=st.one_of(st.just(itdata.DEFAULT_INSTRUCTION), st.text(max_size=5)),
)
def test_an_it_record_is_what_the_column_slicing_builder_built(sentences, instruction):
    for sentence in sentences:
        record = _record_outcome(sentence, instruction, itdata.to_it_record)
        assert record == _record_outcome(sentence, instruction, _old_to_it_record)
        assert type(record) is (str if not sentence.tokens else itdata.ITRecord)


# -- validate ---------------------------------------------------------------

# One library-built bag with a bad key and one with a bad value, each shared
# by every token that draws it, so its settled verdict is read again.
_BAD_KEY_BAG = FeatureBag({"bad key": ["Nom"]})
_BAD_VALUE_BAG = FeatureBag({"Case": ["no-good", "Nom"]})
_LEMMAS = ["", "+", "a++b", "a\tb", "학교+가", "+a", "a+", "x", "a\tb+c"]
_XPOS = ["", "+", "ZZZ", "NNG+ZZZ", "NNG+JKS", "NNG", "VV+EF", "NNG++JKS"]
_TOKEN_SWAPS = {
    "id": st.integers(-1, 15),
    "lemma": st.sampled_from(_LEMMAS),
    "xpos": st.sampled_from(_XPOS),
    "upos": st.sampled_from(["", "Noun", "NOUN", "VERB", "_"]),
    "deprel": st.sampled_from(["", "root", "acl:relcl", "bad", "bad:x", "nsubj", ":", "acl:"]),
    "feats": st.sampled_from([_BAD_KEY_BAG, _BAD_VALUE_BAG, FeatureBag(), FeatureBag({"Case": ["Nom"]})]),
    "head": st.one_of(st.none(), st.integers(-1, 15)),
}


@st.composite
def _clean_tree(draw, sentence):
    """`sentence` as `validate` passes it: heads forming a random tree, `root`
    on the root alone, and an invalid UPOS, DEPREL or word shape replaced."""
    n = len(sentence.tokens)
    order = draw(st.permutations(range(n)))
    heads = [0] * n
    for k in range(1, n):
        heads[order[k]] = order[draw(st.integers(0, k - 1))] + 1
    tokens = []
    for token, head in zip(sentence.tokens, heads):
        deprel = token.deprel if token.deprel.partition(":")[0] in UD_RELATIONS - {"root"} else "dep"
        shape = {} if "" not in _split_plus(token.lemma) else {"lemma": "학교", "xpos": "NNG"}
        tokens.append(token._replace(
            upos=token.upos if token.upos in UPOS_TAGS else "X",
            head=head,
            deprel="root" if head == 0 else deprel,
            **shape,
        ))
    return sentence._replace(tokens=tuple(tokens))


@st.composite
def _mutated_sentences(draw):
    sentences = conllu.parse_conllu(draw(SEJONG_TREEBANK))
    if draw(st.booleans()):  # clean trees, so that a mutation is their one fault
        sentences = [draw(_clean_tree(sentence)) for sentence in sentences]
    for _ in range(draw(st.integers(0, 6))):
        s = draw(st.integers(0, len(sentences) - 1))
        tokens = list(sentences[s].tokens)
        i = draw(st.integers(0, len(tokens) - 1))
        field = draw(st.sampled_from([*_TOKEN_SWAPS, "shape"]))
        if field == "shape":  # LEMMA and XPOS together, so bad pairs of equal length occur
            lemma, xpos = draw(st.sampled_from(_LEMMAS)), draw(st.sampled_from(_XPOS))
            tokens[i] = tokens[i]._replace(lemma=lemma, xpos=xpos)
        else:
            tokens[i] = tokens[i]._replace(**{field: draw(_TOKEN_SWAPS[field])})
        sentences[s] = sentences[s]._replace(tokens=tuple(tokens))
    if draw(st.booleans()):
        s = draw(st.integers(0, len(sentences) - 1))
        n = len(sentences[s].tokens)
        indices = st.integers(-2, n + 2)  # inside 0..n and outside it
        extras = draw(st.lists(st.tuples(indices, st.just("1-2\tx")), min_size=1, max_size=3))
        sentences[s] = sentences[s]._replace(extras=tuple(extras))
    if draw(st.booleans()):
        sentences[0] = sentences[0]._replace(comments=("# sent_id = a\tb",))
    return sentences


def _tree(heads, deprels=None, ids=None, sent_id="s"):
    """One sentence of clean words, word k heading to `heads[k - 1]`, with
    deprel `root` on a head 0 and `dep` elsewhere unless given."""
    deprels = deprels or ["root" if head == 0 else "dep" for head in heads]
    tokens = tuple(
        Token(i, "학교", "학교", "NNG", "NOUN", FeatureBag(), head, deprel)
        for i, head, deprel in zip(ids or range(1, len(heads) + 1), heads, deprels)
    )
    return [Sentence((f"# sent_id = {sent_id}",), tokens)]


@settings(max_examples=400, deadline=None)
@given(sentences=_mutated_sentences(), start=st.integers(1, 3))
@example(sentences=_tree([2, 0, 2], ids=[1, 2, 4]), start=1)  # an id gap
@example(sentences=_tree([0, 0]), start=1)  # two roots
@example(sentences=_tree([0, 1], deprels=["nsubj", "root"]), start=1)  # root deprel off the root
@example(sentences=_tree([0, 5, -1, None]), start=1)  # heads past n, negative and none
@example(sentences=_tree([0, 1.0]), start=1)  # a head that is no int, outside the type
@example(sentences=_tree([0, 3, 2, 1]), start=1)  # a 2-cycle apart from the root
@example(sentences=_tree([*range(2, 301), 0]), start=1)  # a 300-token head-final chain
@example(sentences=_tree([0], sent_id="a\tb"), start=2)
@example(sentences=_tree([0], sent_id=""), start=2)
def test_validate_gives_the_diagnostics_the_token_by_token_validator_gave(sentences, start):
    assert conllu.validate(sentences, start) == _old_validate(sentences, start)


def test_a_bag_with_a_bad_key_is_reported_on_every_token_that_shares_it():
    bag = FeatureBag({"bad key": ["Nom"]})
    tokens = tuple(
        Token(i, "학교", "학교", "NNG", "NOUN", bag, 0 if i == 1 else 1, "root" if i == 1 else "dep")
        for i in range(1, 4)
    )
    sentences = [Sentence(("# sent_id = s",), tokens)] * 2
    diagnostics = conllu.validate(sentences)
    assert diagnostics == _old_validate(sentences)
    assert [(d.token_id, d.rule) for d in diagnostics] == [(i, "feats-syntax") for i in (1, 2, 3)] * 2
    assert diagnostics[0].message == "invalid feature key 'bad key'"


# Token ids and heads from a small range, so self-loops, cycles, tails into
# a cycle, heads outside the sentence, `None` and a token id 0 all occur.
_HEAD_MAPS = st.dictionaries(st.integers(0, 9), st.one_of(st.none(), st.integers(-1, 11)), max_size=10)


@settings(max_examples=400, deadline=None)
@given(heads=_HEAD_MAPS)
@example(heads={1: 1, 2: 0})  # a self-loop
@example(heads={1: 2, 2: 1, 3: 4, 4: 3, 5: 0})  # two cycles
@example(heads={1: 2, 2: 3, 3: 4, 4: 2, 5: 1})  # tails into a cycle
@example(heads={1: 7, 2: -1, 3: None, 4: 0})  # heads outside the sentence, and none
@example(heads={0: 1, 1: 0, 2: 0})  # a token id 0
def test_the_cycle_walker_gives_the_entries_the_list_and_set_walker_gave(heads):
    assert _cycle_entries(heads) == _old_cycle_entries(heads)


# -- enrich -----------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(text=SEJONG_TREEBANK)
@example(text="1\tㅃ\tㅃ\tADJ\tEC\t_\t0\troot\t_\t_\n\n")  # transcribed as Case=pp
def test_enrich_gives_what_the_two_loop_enrich_gave(pack, text):
    # `pack` is shared by every example, so its memos hold earlier examples' shapes
    for sentence in conllu.parse_conllu(text):
        expected = _old_enrich_sentence(sentence, copy.copy(pack))  # a copy starts empty
        assert enrich_sentence(sentence, copy.copy(pack)) == expected
        once = enrich_sentence(sentence, pack)
        assert once == expected
        assert enrich_sentence(once, pack) == _old_enrich_sentence(once, copy.copy(pack))


def _transcription_outcome(surface):
    return _ending_transcription((Morpheme(surface, "EC"),))


def _old_transcription_outcome(surface):
    value = _old_transcription(surface)
    return (("Case", value),) if value else ()


def test_every_bmp_character_transcribes_as_romanize_then_strip_did():
    for code in range(0x10000):
        if 0xD800 <= code < 0xE000:  # surrogates are no characters
            continue
        ch = chr(code)
        # ㅃ, which the old table lacked and so dropped, reads as pp
        expected = (("Case", "pp"),) if ch == "ㅃ" else _old_transcription_outcome(ch)
        assert _transcription_outcome(ch) == expected, hex(code)


# endings mixing hangul syllables, compatibility jamo (U+3131..U+318E, past the
# romanized range too), ASCII and any other character
_ENDING_TEXT = st.text(
    st.one_of(
        st.characters(min_codepoint=0xAC00, max_codepoint=0xD7A3),
        st.characters(min_codepoint=0x3130, max_codepoint=0x318F),
        st.characters(max_codepoint=0x7F),
        st.characters(),
    ),
    max_size=8,
)


@settings(max_examples=400, deadline=None)
@given(surface=_ENDING_TEXT, tag=st.sampled_from(["EC", "EF", "NNG"]), before=st.booleans())
@example(surface="x고!", tag="EC", before=False)
@example(surface="ㄹ수록", tag="EC", before=True)
@example(surface="-", tag="EC", before=False)  # nothing left
@example(surface="ㅃ다", tag="EC", before=False)
def test_an_ending_transcribes_as_romanize_then_strip_did(surface, tag, before):
    stem = (Morpheme("가", "VV"),) if before else ()
    morphemes = stem + (Morpheme(surface, tag),)
    # ㅃ, which the old table lacked and so dropped, reads as the letters pp
    old = _old_ending_transcription(stem + (Morpheme(surface.replace("ㅃ", "pp"), tag),))
    assert _ending_transcription(morphemes) == (() if old is None else (old,))


# -- correct ----------------------------------------------------------------


@st.composite
def _sentences_and_aux(draw):
    """The sentences of SEJONG_TREEBANK text, each with drawn aux entries:
    for its own tokens, for the token past its end, which is missing, and
    for other sent_ids, whose entries it must not take."""
    tags = st.lists(st.sampled_from(sorted(SEJONG_TAGS)), min_size=1, max_size=3).map(tuple)
    pairs = []
    for sentence in conllu.parse_conllu(draw(SEJONG_TREEBANK)):
        sid = sentence.sent_id or ""
        entry = st.builds(
            AuxAnnotation,
            sent_id=st.sampled_from([sid, sid, sid, "s1", "s2", "s9"]),
            token_id=st.integers(1, len(sentence.tokens) + 1),
            ner_label=st.sampled_from([None, "PER"]),
            ext_xpos=st.one_of(st.none(), tags),
        )
        pairs.append((sentence, draw(st.lists(entry, max_size=4))))
    return pairs, None


# For each rule id, a sentence of the correction tests on which it fires:
# (words, heads, aux entries); `None` heads attach every word to the last.
_WENT = ("갔다", "가+았+다", "VV+EP+EF", "VERB")
_FIRING = {
    "ext-xpos": (
        [("예쁘다", "예쁘+다", "VV+EF", "VERB")], None, [AuxAnnotation("s1", 1, None, ("VA", "EF"))]
    ),
    "ner-propn": ([("서울", "서울", "NNG", "NOUN"), _WENT], None, [AuxAnnotation("s1", 1, "LOC")]),
    "ner-common": ([("가방", "가방", "NNP", "PROPN"), _WENT], None, [AuxAnnotation("s1", 1, None)]),
    "canonical-upos": ([("가격에", "가격+에", "NNG+JKB", "ADV"), _WENT], None, []),
    "xr-noun": ([("민주", "민주", "XR", "NOUN")], None, []),
    "complement-jkc": (
        [("학생이", "학생+이", "NNG+JKS", "NOUN"), ("아니다", "아니+다", "VCN+EF", "ADJ")],
        [None, 0],
        [],
    ),
    "conj-adverb": ([("그러나", "그러나", "MAG", "ADV"), _WENT], None, []),
}


def _firing(rule_id):
    words, heads, aux = _FIRING[rule_id]
    return [(make_sentence(words, sent_id="s1", heads=heads), aux)], rule_id


def _correct_outcome(correct, sentence, aux):
    """The sentence, its records and whether it is the input itself, or the
    error's text."""
    try:
        corrected, records = correct(sentence, aux)
    except CorrectionError as error:
        return str(error)
    return corrected, records, corrected is sentence


@settings(max_examples=300, deadline=None)
@given(case=_sentences_and_aux())
@example(case=_firing("ext-xpos"))
@example(case=_firing("ner-propn"))
@example(case=_firing("ner-common"))
@example(case=_firing("canonical-upos"))
@example(case=_firing("xr-noun"))
@example(case=_firing("complement-jkc"))
@example(case=_firing("conj-adverb"))
def test_correct_gives_what_the_token_by_token_correct_gave(pack, case):
    pairs, fires = case
    for sentence, aux in pairs:
        enriched = enrich_sentence(sentence, pack)
        outcome = _correct_outcome(correct_sentence, enriched, aux)
        assert outcome == _correct_outcome(_old_correct_sentence, enriched, aux)
        if fires is not None:
            assert fires in {record.rule_id for record in outcome[1]}
