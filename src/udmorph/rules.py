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
each pack resolves them once into a `Verdict` (pass-1 winners and their bag,
the lookahead rules its word pattern matches, the ending transcription, the
functional-word list its class selects, its first morpheme for a
neighbour's window).  Verdicts, and bags shared per set of emitted values,
are kept in per-pack LRU caches of at most `MEMO_SIZE` entries.
"""

from __future__ import annotations

import io
import pkgutil
import re
from functools import lru_cache
from typing import NamedTuple, Sequence, TextIO

from .conllu import (
    _FEAT_VALUE_RE,
    CANONICAL_UPOS,
    MEMO_SIZE,
    SEJONG_TAGS,
    FeatureBag,
    Morpheme,
    Sentence,
    UdmorphError,
)
from .romanize import romanize

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

# Romanization passes non-hangul characters through; FEATS values may not hold them.
_NON_FEAT_CHARS = re.compile(r"[^A-Za-z0-9]")


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
    bag: FeatureBag  # the winners' bag
    lookahead: tuple[Rule, ...]  # lookahead rules whose word pattern matches, pack order
    ending: FeatureBag | None  # the transcription, when no word-internal rule matches
    functional: frozenset[str]  # the functional words of a one-morpheme word's class


class RulePack:
    """Rules in resolution order, indexed by anchor tag.  `verdict(morphemes)`
    gives a word's `Verdict`, resolved on its first sight and remembered."""

    def __init__(
        self,
        language: str,
        rules: tuple[Rule, ...],
        functional_words: dict[str, frozenset[str]],
        conjunctive_adverbs: frozenset[str],
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
            conjunctive_adverbs=conjunctive_adverbs,
            _positions_by_tag=by_tag,
            # per-pack memos, so each pack, a copy included, starts empty
            verdict=lru_cache(MEMO_SIZE)(self._resolve),
            _winners_bag=lru_cache(MEMO_SIZE)(_bag_of),
        )

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def _fields(self) -> tuple:
        return (self.language, self.rules, self.functional_words, self.conjunctive_adverbs)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __reduce__(self):
        # `verdict` wraps a bound method, which does not pickle; a copy starts empty
        return (RulePack, self._fields())

    def candidates(self, tags: frozenset[str]) -> tuple[Rule, ...]:
        """The rules anchored on any of `tags`, in pack order."""
        positions = {p for tag in tags for p in self._positions_by_tag.get(tag, ())}
        return tuple(self.rules[p] for p in sorted(positions))

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
        ending = None
        if not winners:
            transcription = _ending_transcription(morphemes)
            if transcription is not None:
                # the parsed cell's bag, shared by every equal ending and FEATS cell
                ending = FeatureBag.from_conllu("=".join(transcription))
        pairs = tuple(winners.items())
        return Verdict(
            first=morphemes[0] if morphemes else None,
            winners=pairs,
            bag=self._winners_bag(_emitted(pairs)),
            lookahead=tuple(lookahead),
            ending=ending,
            functional=_functional_class(morphemes, self),
        )


def _emitted(winners: tuple[tuple[str, Rule], ...]) -> tuple[tuple[str, str], ...]:
    """Each winning rule's (key, value) emissions for the key it won."""
    return tuple((feature, v) for feature, rule in winners for k, v in rule.emits if k == feature)


def _bag_of(emitted: tuple[tuple[str, str], ...]) -> FeatureBag:
    """The bag of `emitted`; `RulePack._winners_bag` shares it among every
    word whose winners emit the same values."""
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
    if not emits:
        raise RulePackError("rule emits nothing", line)

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
    """Parse and statically check a rule-pack file."""
    stream = io.StringIO(source) if isinstance(source, str) else source
    language = ""
    rules: list[Rule] = []
    functional: dict[str, set[str]] = {}
    voice: dict[str, str] = {}
    conjadv: set[str] = set()

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
        elif directive == "conjadv":
            conjadv.update(body.split())
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
        conjunctive_adverbs=frozenset(conjadv),
    )


def load_default_pack(language: str = "ko") -> RulePack:
    text = pkgutil.get_data("udmorph", f"data/{language}.rules").decode("utf-8")
    return load_rule_pack(text)


def _context_matches(rule: Rule, window: list[Morpheme]) -> bool:
    """`window` holds the first morphemes of the next two words that have any."""
    if len(rule.context) == 1:
        return any(rule.context[0].matches(m) for m in window)
    return (
        len(window) == 2
        and rule.context[0].matches(window[0])
        and rule.context[1].matches(window[1])
    )


def assign_token_features(verdicts: Sequence[Verdict], index: int, pack: RulePack) -> FeatureBag:
    """The bag of word `index` given the verdicts of its sentence's words:
    the word-internal bag, extended by the lookahead rules whose window
    matches (per feature key the first in pack order wins)."""
    verdict = verdicts[index]
    if not verdict.lookahead:
        return verdict.bag
    window = [v.first for v in verdicts[index + 1 : index + 3] if v.first is not None]
    context: dict[str, Rule] = {}
    for rule in verdict.lookahead:
        if _context_matches(rule, window):
            for key, _ in rule.emits:
                context.setdefault(key, rule)
    if not context:
        return verdict.bag
    return pack._winners_bag(_emitted(verdict.winners + tuple(context.items())))


def assign_features(sentence: Sentence, pack: RulePack) -> Sentence:
    """Replace every token's feature bag with the rules' verdict."""
    verdicts = [pack.verdict(token.morphemes) for token in sentence.tokens]
    tokens = tuple(
        token.with_feats(assign_token_features(verdicts, i, pack))
        for i, token in enumerate(sentence.tokens)
    )
    return Sentence(sentence.comments, tokens, sentence.extras)


def _ending_transcription(morphemes: tuple[Morpheme, ...]) -> tuple[str, str] | None:
    """Surface transcription of a word-final conjunctive ending.  Characters
    that a FEATS value cannot hold are dropped; an ending with nothing left
    gets no transcription."""
    if not morphemes or morphemes[-1].tag != "EC":
        return None
    value = _NON_FEAT_CHARS.sub("", romanize(morphemes[-1].surface))
    return ("Case", value) if value else None


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
    """Full enrichment: rule features, ending transcription, functional flags."""
    enriched = assign_features(sentence, pack)
    tokens = list(enriched.tokens)
    for i, token in enumerate(enriched.tokens):
        verdict = pack.verdict(token.morphemes)
        if verdict.ending is not None and not token.feats:
            tokens[i] = token = token.with_feats(verdict.ending)
        if token.form in verdict.functional:
            misc = _misc_with_flag(token.misc, "Functional", "Yes")
            if misc != token.misc:
                tokens[i] = token.replace(misc=misc)
    return Sentence(enriched.comments, tuple(tokens), enriched.extras)
