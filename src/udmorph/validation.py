"""The checks of `conllu.validate`, which imports this module on first use:
only the `validate` command compiles and loads them.

A clean sentence is cleared in one pass over its columns, judging each
(LEMMA, XPOS) shape and each subtyped DEPREL once, in the `MEMO_SIZE` memos
`_clean_shape` and `_clean_deprel`; only a sentence this pass cannot clear
is checked token by token.
"""

from __future__ import annotations

from functools import lru_cache
from operator import attrgetter, itemgetter
from typing import Iterable

from .conllu import (
    _FEAT_KEY_RE,
    _FEAT_VALUE_RE,
    MEMO_SIZE,
    SEJONG_TAGS,
    UD_RELATIONS,
    UPOS_TAGS,
    Diagnostic,
    Sentence,
    _misalignment,
    _split_plus,
)

_VERDICT = attrgetter("_verdict")


@lru_cache(maxsize=MEMO_SIZE)
def _clean_shape(lemma: str, xpos: str) -> bool:
    """Whether a (LEMMA, XPOS) shape surely passes `_check_morphemes`."""
    segments, tags = lemma.split("+"), xpos.split("+")
    return (len(segments) == len(tags) and SEJONG_TAGS.issuperset(tags)
            and "" not in segments and "\t" not in lemma)


@lru_cache(maxsize=MEMO_SIZE)
def _clean_deprel(deprel: str) -> bool:
    """Whether a DEPREL is set and its universal part is one of UD's."""
    return deprel.partition(":")[0] in UD_RELATIONS


def _check_morphemes(token_id: int, lemma: str, xpos: str, report) -> None:
    # the raw columns, not token.morphemes: a misaligned token is reported
    segments, tags = _split_plus(lemma), _split_plus(xpos)
    problem = _misalignment(segments, tags, lenient=False)
    if problem:
        report(token_id, "morph-alignment", problem)
    for code in tags:
        if code not in SEJONG_TAGS:
            report(token_id, "xpos-tag", f"unknown XPOS tag {code!r}")
    for surface in segments:
        # a surface holds "+" only as the whole literal-plus lemma
        if surface == "" or "\t" in surface:
            report(token_id, "morpheme-surface", f"invalid morpheme surface {surface!r}")


def _cycle_entries(heads: dict[int, int | None]) -> dict[int, int | None]:
    """For each token id, the first node its walk up `heads` visits twice,
    or None when the walk ends at 0, a missing head or an id outside the
    sentence.  Each node is walked once: a node on a cycle is its own entry,
    and a tail node has the entry of the node it heads into."""
    entries: dict[int, int | None] = {}
    for start in heads:
        if start in entries:
            continue
        path: dict[int, None] = {}  # this walk's nodes, in order
        node = start
        while node != 0 and node in heads and node not in entries and node not in path:
            path[node] = None
            node = heads[node]
        # a cycle this walk closed starts at `node`, and the members before
        # it are its tail; an entry an earlier walk placed is never on `path`
        reached = node if node in path else entries.get(node)
        on_cycle = False
        for member in path:
            on_cycle = on_cycle or member == reached
            entries[member] = member if on_cycle else reached
    return entries


def validate(sentences: Iterable[Sentence], start: int = 1) -> list[Diagnostic]:
    """Check every sentence/token/feature invariant; diagnostics, not raises.

    A sentence without a `sent_id`, or whose `sent_id` holds a tab (which
    no tab-separated file can carry), is named by its position, counted from
    `start`.  Each sentence is first checked column by column, its tree by
    pointer jumping; only one this pass cannot clear goes token by token,
    with `_check_morphemes` for a shape `_clean_shape` does not clear and
    FEATS read key by key for a bag whose verdict is false."""
    diagnostics: list[Diagnostic] = []
    for index, sentence in enumerate(sentences, start=start):
        sent_id = sentence.sent_id or ""
        tokens = sentence.tokens
        n = len(tokens)
        extras = sentence.extras
        if tokens and "\t" not in sent_id and (not extras or all(0 <= i <= n for i, _ in extras)):
            ids, _, lemmas, xposes, upostags, bags, head_ids, deprels, _, _ = zip(*tokens)
            if (ids == tuple(range(1, n + 1)) and UPOS_TAGS.issuperset(upostags)
                    and all(map(_VERDICT, bags)) and all(map(_clean_shape, lemmas, xposes))
                    and (UD_RELATIONS.issuperset(deprels) or all(map(_clean_deprel, deprels)))
                    and head_ids.count(0) == 1 and deprels.count("root") == 1
                    and deprels[head_ids.index(0)] == "root"
                    and all(map(int.__instancecheck__, head_ids))
                    and 0 <= min(head_ids) and max(head_ids) <= n):
                walk = (0, *head_ids)  # after k rounds, walk[x] is 2**k heads above x, or 0
                for _ in range(n.bit_length()):
                    walk = itemgetter(*walk)(walk) if any(walk) else walk
                if not any(walk):  # every token reaches 0 within n hops: no cycle
                    continue
        sid = sent_id if sent_id and "\t" not in sent_id else str(index)

        def report(token_id: int | None, rule: str, message: str, _sid=sid):
            diagnostics.append(Diagnostic(_sid, token_id, rule, message))

        if "\t" in sent_id:
            report(None, "sent-id", f"sent_id {sent_id!r} holds a tab")

        for extra_index, _ in extras:
            if not 0 <= extra_index <= n:
                report(None, "extra-position", f"extra line at index {extra_index} outside 0..{n}")

        heads: dict[int, int | None] = {}
        roots: list[int] = []
        head_problems: list[tuple[int, str, str]] = []  # reported after the root count
        for position, token in enumerate(tokens, start=1):
            token_id, _, lemma, xpos, upos, feats, head, deprel, _, _ = token
            if token_id != position:
                report(token_id, "id-sequence", f"expected id {position}, got {token_id}")
            if not _clean_shape(lemma, xpos):
                _check_morphemes(token_id, lemma, xpos, report)
            if upos not in UPOS_TAGS:
                report(token_id, "upos-value", f"invalid UPOS {upos!r}")
            if deprel and not _clean_deprel(deprel):
                report(token_id, "deprel-value", f"invalid DEPREL {deprel!r}")
            if not feats._verdict:
                for key, values in feats.items():
                    if not _FEAT_KEY_RE.match(key):
                        report(token_id, "feats-syntax", f"invalid feature key {key!r}")
                    for v in values:
                        if not _FEAT_VALUE_RE.match(v):
                            report(token_id, "feats-syntax", f"invalid feature value {v!r}")

            heads[token_id] = head
            if head == 0:
                roots.append(token_id)
                if deprel != "root":
                    head_problems.append(
                        (token_id, "root-deprel", f"head 0 requires deprel 'root', got {deprel!r}")
                    )
            elif head is None:
                head_problems.append((token_id, "head-missing", "missing HEAD value"))
            else:
                if not 0 < head <= n:
                    head_problems.append((token_id, "head-range", f"head {head} outside 0..{n}"))
                if deprel == "root":
                    head_problems.append(
                        (token_id, "root-deprel", f"deprel 'root' requires head 0, got {head}")
                    )
                elif not deprel:
                    head_problems.append((token_id, "deprel-missing", "missing DEPREL value"))

        if n and not roots:
            report(None, "root-count", "no root token (head == 0)")
        elif len(roots) > 1:
            report(None, "root-count", f"multiple roots: tokens {roots}")
        for problem in head_problems:
            report(*problem)

        entries = _cycle_entries(heads)
        if any(entries.values()):  # an entry is None or the id of a token on a cycle, never 0
            for token in tokens:
                through = entries.get(token.id)
                if through is not None:
                    report(token.id, "head-cycle", f"head cycle through token {through}")
    return diagnostics
