"""In-process tracing of udmorph's public functions.

`Tracer.installed()` replaces the traced module attributes with wrappers for
the duration of a `with` block, so `udmorph.cli.main` run in-process goes
through them, as do calls inside the package that look the name up in its
module (`enrich_sentence` -> `assign_features`, `parse_conllu` ->
`iter_sentences`, `load_default_pack` -> `load_rule_pack`).  Each call
records one span: name, command, sentence ordinal within the command,
start, end, parent span, and the number of tokens it handled.  Spans stay in
memory until `write`.
"""

from __future__ import annotations

import gzip
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator


@dataclass
class Span:
    name: str
    command: str
    sentence: int
    start_ns: int
    end_ns: int = 0
    parent: int = -1
    tokens: int = 0

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


# Token counters read the traced call's first argument, which the CLI always
# passes positionally: a sentence, or a list of sentences or of records.
def _sentence_tokens(first) -> int:
    return len(first.tokens)


def _list_tokens(first) -> int:
    if not isinstance(first, (list, tuple)):
        return 0
    return sum(len(s.tokens) for s in first)


def _record_rows(first) -> int:
    if not isinstance(first, (list, tuple)):
        return 0
    return sum(r.output.count("\n") for r in first)


def _no_tokens(first) -> int:
    return 0


@dataclass
class Counts:
    """Work counts taken from the traced calls' results."""

    feature_values: int = 0
    enriched_tokens: int = 0
    transcriptions: int = 0
    functional_flags: int = 0
    records: int = 0
    diagnostics: int = 0
    rows_parsed: int = 0
    unmatched_rows: int = 0
    missing_rows: int = 0


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    counts: Counts = field(default_factory=Counts)
    command: str = ""
    _stack: list[int] = field(default_factory=list)
    _sentence: int = 0
    _last_assigned: object = None

    def start_command(self, command: str) -> None:
        self.command = command
        self._sentence = 0

    def _open(self, name: str) -> Span:
        span = Span(name, self.command, self._sentence, 0, parent=self._stack[-1] if self._stack else -1)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start_ns = time.perf_counter_ns()
        return span

    def _close(self, span: Span) -> None:
        span.end_ns = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, func: Callable, name: str, tokens: Callable, observe: Callable | None = None):
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                self._close(span)
            span.tokens = tokens(args[0] if args else None)
            if observe is not None:
                observe(result)
            return result

        return traced

    def wrap_iter(self, func: Callable, name: str):
        """A span per sentence drawn from the generator, including the final EOF read."""

        def traced(*args, **kwargs) -> Iterator:
            iterator = func(*args, **kwargs)
            while True:
                span = self._open(name)
                try:
                    sentence = next(iterator)
                except StopIteration:
                    return
                finally:
                    self._close(span)
                self._sentence += 1
                span.sentence = self._sentence
                span.tokens = len(sentence.tokens)
                yield sentence

        return traced

    def _observe_assign(self, result) -> None:
        self._last_assigned = result

    def _observe_enrich(self, result) -> None:
        assigned, self._last_assigned = self._last_assigned, None
        counts = self.counts
        for i, token in enumerate(result.tokens):
            counts.enriched_tokens += 1
            counts.feature_values += sum(len(values) for _, values in token.feats.items())
            if "Functional=Yes" in token.misc.split("|"):
                counts.functional_flags += 1
            if assigned is not None and token.feats and not assigned.tokens[i].feats:
                counts.transcriptions += 1

    def _observe_correct(self, result) -> None:
        self.counts.records += len(result[1])

    def _observe_validate(self, result) -> None:
        self.counts.diagnostics += len(result)

    def _observe_predictions(self, result) -> None:
        self.counts.rows_parsed += sum(len(block) for block in result)

    def _observe_score(self, result) -> None:
        self.counts.unmatched_rows += result.unmatched_predicted_rows
        self.counts.missing_rows += result.missing_gold_rows

    def _targets(self):
        from udmorph import conllu, corrections, evaluate, itdata, rules

        return [
            (conllu, "iter_sentences", None, None),
            (conllu, "validate", _list_tokens, self._observe_validate),
            (conllu, "write_conllu", _list_tokens, None),
            (rules, "load_default_pack", _no_tokens, None),
            (rules, "load_rule_pack", _no_tokens, None),
            (rules, "assign_features", _sentence_tokens, self._observe_assign),
            (rules, "enrich_sentence", _sentence_tokens, self._observe_enrich),
            (corrections, "read_aux_sidecar", _no_tokens, None),
            (corrections, "correct_sentence", _sentence_tokens, self._observe_correct),
            (corrections, "write_records", _no_tokens, None),
            (itdata, "to_it_record", _sentence_tokens, None),
            (itdata, "emit_jsonl", _record_rows, None),
            (itdata, "read_prediction_blocks", _no_tokens, self._observe_predictions),
            (evaluate, "score", _list_tokens, self._observe_score),
        ]

    @contextmanager
    def installed(self):
        """Swap in the wrappers; a name missing from its module is left untraced."""
        saved = []
        try:
            for module, name, tokens, observe in self._targets():
                original = getattr(module, name, None)
                if original is None:
                    continue
                saved.append((module, name, original))
                if tokens is None:
                    wrapper = self.wrap_iter(original, name)
                else:
                    wrapper = self.wrap(original, name, tokens, observe)
                setattr(module, name, wrapper)
            yield self
        finally:
            for module, name, original in reversed(saved):
                setattr(module, name, original)

    def self_ns(self) -> list[int]:
        """Each span's duration minus the time its child spans cover."""
        own = [span.duration_ns for span in self.spans]
        for span in self.spans:
            if span.parent >= 0:
                own[span.parent] -= span.duration_ns
        return own

    def write(self, path) -> None:
        own = self.self_ns()
        with gzip.open(path, "wt", encoding="utf-8") as sink:
            for i, span in enumerate(self.spans):
                sink.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": span.name,
                            "command": span.command,
                            "sentence": span.sentence,
                            "parent": span.parent,
                            "start_ns": span.start_ns,
                            "duration_ns": span.duration_ns,
                            "self_ns": own[i],
                            "tokens": span.tokens,
                        }
                    )
                    + "\n"
                )
