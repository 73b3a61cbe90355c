"""Deterministic morpheme-pattern rules assigning morphosyntactic features.

Rules live in a line-oriented pack file (see `load_rule_pack`) and fire on
(surface, tag) morpheme evidence only, never on existing features, which
makes feature assignment a pure, idempotent function of the sentence and
the pack.  A pack holds its rules in resolution order (higher priority
first, ties broken by rule id) and indexes them by anchor tag, so a rule is
tried only on words holding one of its anchor tags; the rules a word can
match keep that order, and one scan over them resolves two passes:

pass 1 - word-internal rules (no cross-token context); per feature key the
         first matching rule wins.
pass 2 - periphrastic rules with a lookahead window of two syntactic words,
         resolved the same way; their emissions extend the pass-1 bag and
         never displace it (a key already present gains values instead of
         being overwritten).

Everything but the lookahead window depends on a word's morphemes alone, so
each pack resolves them once into a `Verdict` (pass-1 winners, the bag the
word gets unless a lookahead rule fires, the lookahead rules its word
pattern matches, the functional-word list its class selects, its first
morpheme for a neighbour's window).  That bag is the winners', or, when no
word-internal rule matches, the transcription of a word-final conjunctive
ending (`Case=<romanized ending>`), which `_ending_transcription` spells in
one pass over the ending's characters.  Every bag the rules assign is built
by the pack's `_winners_bag` from the (key, value) pairs emitted.
`enrich_sentence` looks up each word's verdict once and, in one loop over
the sentence, resolves its lookahead window against the next words'
verdicts and sets its functional flag.  Verdicts, and bags shared per set
of emitted values, are kept in per-pack LRU caches of at most `MEMO_SIZE`
entries.
"""

from __future__ import annotations

import os
from functools import lru_cache
from typing import NamedTuple, TextIO

from .conllu import (
    _FEAT_VALUE_RE,
    CANONICAL_UPOS,
    MEMO_SIZE,
    SEJONG_TAGS,
    FeatureBag,
    Morpheme,
    Sentence,
    UdmorphError,
    _text_stream,
)

PACK_HEADER = "#unidive-rules v1"

FEATURE_KEYS = frozenset(
    (
        "Aspect",
        "Case",
        "Evident",
        "Mood",
        "NumType",
        "Number",
        "Person",
        "Person[psor]",
        "Polite",
        "PronType",
        "Tense",
        "VerbForm",
        "Voice",
    )
)

POSITIONS = ("any", "initial", "final")

_VOICE_PRIORITY_BASE = 9000


class RulePackError(UdmorphError):
    """Malformed rule pack."""


class MorphPattern(NamedTuple):
    """Matches one morpheme by surface alternation and/or tag alternation."""

    surfaces: frozenset[str] | None = None  # None matches any surface
    tags: frozenset[str] | None = None      # None matches any tag

    def matches(self, morpheme: Morpheme) -> bool:
        if self.surfaces is not None and morpheme.surface not in self.surfaces:
            return False
        if self.tags is not None and morpheme.tag not in self.tags:
            return False
        return True


class Rule(NamedTuple):
    id: str
    priority: int
    tags: frozenset[str]
    surfaces: frozenset[str] | None = None
    position: str = "any"
    prev: MorphPattern | None = None
    context: tuple[MorphPattern, ...] = ()
    emits: tuple[tuple[str, str], ...] = ()

    @property
    def pattern_key(self):
        return (self.tags, self.surfaces, self.position, self.prev, self.context)

    def matches_word(self, morphemes: tuple[Morpheme, ...]) -> bool:
        last = len(morphemes) - 1
        for i, m in enumerate(morphemes):
            if m.tag not in self.tags:
                continue
            if self.surfaces is not None and m.surface not in self.surfaces:
                continue
            if self.position == "initial" and i != 0:
                continue
            if self.position == "final" and i != last:
                continue
            if self.prev is not None and (i == 0 or not self.prev.matches(morphemes[i - 1])):
                continue
            return True
        return False


class Verdict(NamedTuple):
    """What a pack decides for one word's morphemes."""

    first: Morpheme | None  # the first morpheme, seen by a preceding word's lookahead
    winners: tuple[tuple[str, Rule], ...]  # per feature key, the word-internal winner
    bag: FeatureBag  # the winners' bag, or the transcription when there are none
    lookahead: tuple[Rule, ...]  # lookahead rules whose word pattern matches, pack order
    functional: frozenset[str]  # the functional words of a one-morpheme word's class


class RulePack:
    """Rules in resolution order, indexed by anchor tag.  `verdict(morphemes)`
    gives a word's `Verdict`, resolved on its first sight and remembered."""

    def __init__(
        self,
        language: str,
        rules: tuple[Rule, ...],
        functional_words: dict[str, frozenset[str]],
    ):
        ordered = tuple(sorted(rules, key=lambda r: (-r.priority, r.id)))
        by_tag: dict[str, list[int]] = {}
        for position, rule in enumerate(ordered):
            for tag in rule.tags:
                by_tag.setdefault(tag, []).append(position)
        # immutable, so the memos never outlive the rules they were filled from
        self.__dict__.update(
            language=language,
            rules=ordered,
            functional_words=functional_words,
            _positions_by_tag=by_tag,
            # per-pack memos, so each pack, a copy included, starts empty
            verdict=lru_cache(MEMO_SIZE)(self._resolve),
            _winners_bag=lru_cache(MEMO_SIZE)(_bag_of),
        )

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def _fields(self) -> tuple:
        return (self.language, self.rules, self.functional_words)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __reduce__(self):
        # `verdict` wraps a bound method, which does not pickle; a copy starts empty
        return (RulePack, self._fields())

    def candidates(self, tags: frozenset[str]) -> tuple[Rule, ...]:
        """The rules anchored on any of `tags`, in pack order."""
        # each tuple on a per-word path is built from a list, at its final
        # size (see `corrections.correct_sentence`)
        positions = {p for tag in tags for p in self._positions_by_tag.get(tag, ())}
        return tuple([self.rules[p] for p in sorted(positions)])

    def _resolve(self, morphemes: tuple[Morpheme, ...]) -> Verdict:
        """The verdict for a word's morphemes; `verdict` is its per-pack memo."""
        winners: dict[str, Rule] = {}
        lookahead = []
        for rule in self.candidates(frozenset(m.tag for m in morphemes)):
            if not rule.matches_word(morphemes):
                continue
            if rule.context:
                lookahead.append(rule)
            else:
                for key, _ in rule.emits:
                    winners.setdefault(key, rule)
        pairs = tuple(winners.items())
        return Verdict(
            first=morphemes[0] if morphemes else None,
            winners=pairs,
            bag=self._winners_bag(_emitted(pairs) if pairs else _ending_transcription(morphemes)),
            lookahead=tuple(lookahead),
            functional=_functional_class(morphemes, self),
        )


def _emitted(winners: tuple[tuple[str, Rule], ...]) -> tuple[tuple[str, str], ...]:
    """Each winning rule's (key, value) emissions for the key it won."""
    return tuple([(feature, v) for feature, rule in winners for k, v in rule.emits if k == feature])


def _bag_of(emitted: tuple[tuple[str, str], ...]) -> FeatureBag:
    """The bag of `emitted`; `RulePack._winners_bag` shares it among every
    word whose winners, or whose ending transcription, emit the same values."""
    entries: dict[str, list[str]] = {}
    for key, value in emitted:
        entries.setdefault(key, []).append(value)
    return FeatureBag(entries)


def _parse_alternation(text: str, line: int) -> frozenset[str] | None:
    if text == "*":
        return None
    members = text.split("|")
    if "" in members:
        raise RulePackError(f"empty alternative in {text!r}", line)
    return frozenset(members)


def _parse_tags(text: str, line: int) -> frozenset[str] | None:
    tags = _parse_alternation(text, line)
    for code in tags or ():
        if code not in SEJONG_TAGS:
            raise RulePackError(f"unknown tag code {code!r}", line)
    return tags


def _parse_morph_pattern(text: str, line: int) -> MorphPattern:
    surface, sep, tag = text.partition("/")
    if not sep:
        raise RulePackError(f"context pattern {text!r} must be <surface>/<tag>", line)
    return MorphPattern(_parse_alternation(surface, line), _parse_tags(tag, line))


def _check_feature_value(value: str, line: int) -> None:
    if not _FEAT_VALUE_RE.match(value):
        raise RulePackError(f"feature value {value!r} is not valid in FEATS", line)


def _parse_rule_line(body: str, line: int) -> Rule:
    head, sep, emit_text = body.partition("=>")
    if not sep:
        raise RulePackError("rule line missing '=>'", line)
    fields = head.split()
    if len(fields) < 3:
        raise RulePackError("rule line needs '<id> <priority> <field>...'", line)
    rule_id = fields[0]
    try:
        priority = int(fields[1])
    except ValueError:
        raise RulePackError(f"priority must be an integer, got {fields[1]!r}", line)

    tags = surfaces = None
    position = "any"
    prev = None
    context: tuple[MorphPattern, ...] = ()
    for item in fields[2:]:
        key, sep, value = item.partition("=")
        if not sep:
            raise RulePackError(f"malformed field {item!r}", line)
        if key == "tag":
            tags = _parse_tags(value, line)
            if tags is None:
                raise RulePackError("anchor tag may not be '*'", line)
        elif key == "surface":
            surfaces = _parse_alternation(value, line)
        elif key == "pos":
            if value not in POSITIONS:
                raise RulePackError(f"position must be one of {POSITIONS}, got {value!r}", line)
            position = value
        elif key == "prev":
            prev = _parse_morph_pattern(value, line)
        elif key == "next":
            slots = value.split(",")
            if len(slots) > 2:
                raise RulePackError("lookahead limited to two tokens", line)
            context = tuple(_parse_morph_pattern(slot, line) for slot in slots)
        else:
            raise RulePackError(f"unknown rule field {key!r}", line)
    if tags is None:
        raise RulePackError("rule is missing the required tag= field", line)
    if position == "initial" and prev is not None:
        raise RulePackError(
            "pos=initial with prev= never fires: no morpheme comes before a word's first", line
        )

    emits = []
    for item in emit_text.split(","):
        item = item.strip()
        key, sep, value = item.partition("=")
        if not sep or not key or not value:
            raise RulePackError(f"malformed emission {item!r}", line)
        if key not in FEATURE_KEYS:
            raise RulePackError(f"unknown feature key {key!r}", line)
        _check_feature_value(value, line)
        emits.append((key, value))

    return Rule(
        id=rule_id,
        priority=priority,
        tags=tags,
        surfaces=surfaces,
        position=position,
        prev=prev,
        context=context,
        emits=tuple(emits),
    )


def _compile_voice_rules(voice_lexicon: dict[str, str]) -> list[Rule]:
    rules = []
    for i, (key, value) in enumerate(sorted(voice_lexicon.items())):
        priority = _VOICE_PRIORITY_BASE + i
        if "+" in key:
            stem, suffix = key.split("+", 1)
            rule = Rule(
                id=f"voice:{key}",
                priority=priority,
                tags=frozenset({"XSV", "XSA"}),
                surfaces=frozenset({suffix}),
                prev=MorphPattern(frozenset({stem}), frozenset({"VV", "VA", "VX", "NNG"})),
                emits=(("Voice", value),),
            )
        else:
            rule = Rule(
                id=f"voice:{key}",
                priority=priority,
                tags=frozenset({"VV", "VX"}),
                surfaces=frozenset({key}),
                position="initial",
                emits=(("Voice", value),),
            )
        rules.append(rule)
    return rules


def load_rule_pack(source: str | TextIO) -> RulePack:
    """Parse and statically check a rule-pack file; a `str` is read with
    universal newlines, as the CLI reads a file."""
    stream = _text_stream(source)
    language = ""
    rules: list[Rule] = []
    functional: dict[str, set[str]] = {}
    voice: dict[str, str] = {}

    first = stream.readline().rstrip("\n")
    if first.strip() != PACK_HEADER:
        raise RulePackError(f"missing header {PACK_HEADER!r}", 1)

    for line_no, raw in enumerate(stream, start=2):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        directive, _, body = line.partition(" ")
        body = body.strip()
        if directive == "language":
            language = body
        elif directive == "rule":
            rules.append(_parse_rule_line(body, line_no))
        elif directive == "func":
            parts = body.split()
            if len(parts) < 2:
                raise RulePackError("func needs '<class> <word>...'", line_no)
            functional.setdefault(parts[0], set()).update(parts[1:])
        elif directive == "voice":
            parts = body.split()
            if len(parts) != 2:
                raise RulePackError("voice needs '<stem[+suffix]> <value>'", line_no)
            stem, plus, suffix = parts[0].partition("+")
            if not stem or (plus and not suffix):
                raise RulePackError(f"voice entry {parts[0]!r} has an empty stem or suffix", line_no)
            if parts[0] in voice:
                raise RulePackError(f"duplicate voice entry {parts[0]!r}", line_no)
            _check_feature_value(parts[1], line_no)
            voice[parts[0]] = parts[1]
        else:
            raise RulePackError(f"unknown directive {directive!r}", line_no)

    rules.extend(_compile_voice_rules(voice))
    if not rules:
        raise RulePackError("no rules")

    seen_ids: set[str] = set()
    by_pattern: dict[tuple, Rule] = {}
    for rule in rules:
        if rule.id in seen_ids:
            raise RulePackError(f"duplicate rule id {rule.id!r}")
        seen_ids.add(rule.id)
        clash = by_pattern.setdefault((rule.pattern_key, rule.priority), rule)
        if clash is not rule:
            raise RulePackError(
                f"rules {clash.id!r} and {rule.id!r} share a pattern and priority {rule.priority}"
            )

    return RulePack(
        language=language,
        rules=tuple(rules),
        functional_words={k: frozenset(v) for k, v in functional.items()},
    )


def load_default_pack(language: str = "ko") -> RulePack:
    """The pack shipped as `udmorph/data/<language>.rules`, read through this
    module's own loader, which also reads from a zip, so a start-up loads
    no `pkgutil`."""
    path = os.path.join(os.path.dirname(__file__), "data", f"{language}.rules")
    return load_rule_pack(__spec__.loader.get_data(path).decode("utf-8"))


def _context_matches(rule: Rule, window: list[Morpheme]) -> bool:
    """`window` holds the first morphemes of the next two words that have any."""
    if len(rule.context) == 1:
        return any(rule.context[0].matches(m) for m in window)
    return (
        len(window) == 2
        and rule.context[0].matches(window[0])
        and rule.context[1].matches(window[1])
    )


# Revised Romanization, letter by letter: no sound change (sandhi) is applied,
# so each ending has one transcription.  A hangul syllable is onset + vowel +
# coda; an isolated compatibility consonant (U+3131..U+314E) is read as a
# coda, as in the contracted ending ㄴ다 -> "nda", and a compatibility vowel
# (U+314F..U+3163) as its vowel.
_ONSETS = (
    "g", "kk", "n", "d", "tt", "r", "m", "b", "pp",
    "s", "ss", "", "j", "jj", "ch", "k", "t", "p", "h",
)
_VOWELS = (
    "a", "ae", "ya", "yae", "eo", "e", "yeo", "ye", "o", "wa",
    "wae", "oe", "yo", "u", "wo", "we", "wi", "yu", "eu", "ui", "i",
)
_CODAS = (
    "", "k", "k", "k", "n", "n", "n", "t", "l", "k", "m",
    "p", "l", "l", "p", "l", "m", "p", "p", "t", "t",
    "ng", "t", "t", "k", "t", "p", "t",
)
_COMPAT_CONSONANTS = {
    "ㄱ": "k", "ㄲ": "kk", "ㄳ": "k", "ㄴ": "n", "ㄵ": "n", "ㄶ": "n",
    "ㄷ": "t", "ㄸ": "tt", "ㄹ": "l", "ㄺ": "k", "ㄻ": "m", "ㄼ": "l",
    "ㄽ": "l", "ㄾ": "l", "ㄿ": "p", "ㅀ": "l", "ㅁ": "m", "ㅂ": "p",
    "ㅃ": "pp", "ㅄ": "p", "ㅅ": "s", "ㅆ": "ss", "ㅇ": "ng", "ㅈ": "j",
    "ㅉ": "jj", "ㅊ": "ch", "ㅋ": "k", "ㅌ": "t", "ㅍ": "p", "ㅎ": "h",
}
_COMPAT_VOWEL_BASE = 0x314F  # ㅏ
_SYLLABLE_BASE = 0xAC00
_SYLLABLE_COUNT = 11172


def _ending_transcription(morphemes: tuple[Morpheme, ...]) -> tuple[tuple[str, str], ...]:
    """The emission `(("Case", <romanized surface>),)` of a word-final
    conjunctive ending, or `()`.  Hangul syllables and compatibility jamo are
    romanized, ASCII letters and digits kept and every other character, which
    a FEATS value cannot hold, dropped; an ending with nothing left gets no
    transcription."""
    if not morphemes or morphemes[-1].tag != "EC":
        return ()
    parts = []
    for ch in morphemes[-1].surface:
        code = ord(ch)
        if 0 <= code - _SYLLABLE_BASE < _SYLLABLE_COUNT:
            onset, rest = divmod(code - _SYLLABLE_BASE, 21 * 28)
            vowel, coda = divmod(rest, 28)
            parts.append(_ONSETS[onset] + _VOWELS[vowel] + _CODAS[coda])
        elif ch in _COMPAT_CONSONANTS:
            parts.append(_COMPAT_CONSONANTS[ch])
        elif 0 <= code - _COMPAT_VOWEL_BASE < 21:
            parts.append(_VOWELS[code - _COMPAT_VOWEL_BASE])
        elif ch.isascii() and ch.isalnum():
            parts.append(ch)
    value = "".join(parts)
    return (("Case", value),) if value else ()


def _functional_class(morphemes: tuple[Morpheme, ...], pack: RulePack) -> frozenset[str]:
    """The pack's functional words of a one-morpheme word's UPOS class."""
    if len(morphemes) != 1:
        return frozenset()
    return pack.functional_words.get(CANONICAL_UPOS.get(morphemes[0].tag), frozenset())


def _misc_with_flag(misc: str, key: str, value: str) -> str:
    items = [] if misc in ("", "_") else misc.split("|")
    entry = f"{key}={value}"
    if entry in items:
        return misc
    items = [i for i in items if not i.startswith(f"{key}=")]
    items.append(entry)
    return "|".join(items)


def enrich_sentence(sentence: Sentence, pack: RulePack) -> Sentence:
    """Replace every token's feature bag with the rules' verdict and flag the
    functional words.  A token gets its verdict's bag, unless lookahead rules
    whose window matches fire: then the word-internal winners' bag, extended
    by theirs (per feature key the first in pack order wins)."""
    verdicts = [pack.verdict(token.morphemes) for token in sentence.tokens]
    tokens = []
    for i, token in enumerate(sentence.tokens):
        verdict = verdicts[i]
        bag = verdict.bag
        if verdict.lookahead:
            window = [v.first for v in verdicts[i + 1 : i + 3] if v.first is not None]
            context: dict[str, Rule] = {}
            for rule in verdict.lookahead:
                if _context_matches(rule, window):
                    for key, _ in rule.emits:
                        context.setdefault(key, rule)
            if context:
                bag = pack._winners_bag(_emitted(verdict.winners + tuple(context.items())))
        token = token.with_feats(bag)
        if token.form in verdict.functional:
            misc = _misc_with_flag(token.misc, "Functional", "Yes")
            if misc != token.misc:
                token = token.with_misc(misc)
        tokens.append(token)
    return Sentence(sentence.comments, tuple(tokens), sentence.extras)
