"""UAS/LAS scoring of predicted dependency structures against gold.

Predicted rows align to gold tokens by id; a gold token is head-correct iff
an aligned row exists with an equal head, and label-correct iff additionally
the deprel matches exactly.  Alignment is order-independent: when several
rows claim the same id with conflicting payloads, none of them aligns.
Surplus, duplicate-conflicting and out-of-range rows are tallied but never
scored, so arbitrarily degraded generative output still yields a report
instead of an error.
"""

from __future__ import annotations

from itertools import zip_longest
from typing import Iterable, NamedTuple, Sequence

from .conllu import Sentence, UdmorphError
from .itdata import ParsedRow


class EvalError(UdmorphError):
    """Predictions that cannot be aligned with their gold sentences."""


_END = object()  # pads the shorter side in `score`


def _percentage(numerator: int, denominator: int) -> float:
    """`100 * numerator / denominator` rounded half up to hundredths, on
    exact integers."""
    if denominator == 0:
        return 0.0
    return (20000 * numerator + denominator) // (2 * denominator) / 100


class EvalReport(NamedTuple):
    total_tokens: int
    head_correct: int
    both_correct: int
    unmatched_predicted_rows: int = 0
    missing_gold_rows: int = 0

    @property
    def uas(self) -> float:
        return _percentage(self.head_correct, self.total_tokens)

    @property
    def las(self) -> float:
        return _percentage(self.both_correct, self.total_tokens)


class DeltaReport(NamedTuple):
    uas_delta: float
    las_delta: float


def score(
    gold: Iterable[Sentence],
    predicted: Iterable[Sequence[ParsedRow]],
    *,
    exclude_punct: bool = False,
) -> EvalReport:
    """Score sentence-aligned predictions; all tokens count unless excluded.

    Both sides are drawn in step, one sentence each, so iterators stream.
    Both are read to the end before a count mismatch is raised."""
    total = head_correct = both_correct = unmatched = missing = 0
    gold_count = predicted_count = 0
    for sentence, rows in zip_longest(gold, predicted, fillvalue=_END):
        gold_count += sentence is not _END
        predicted_count += rows is not _END
        if sentence is _END or rows is _END:
            continue
        gold_ids = {t.id for t in sentence.tokens}
        claims: dict[int, list[tuple[int | None, str | None]]] = {}
        for row in rows:
            if row.id in gold_ids:
                claims.setdefault(row.id, []).append((row.head, row.deprel))
            else:
                unmatched += 1
        aligned: dict[int, tuple[int | None, str | None]] = {}
        for row_id, payloads in claims.items():
            if payloads.count(payloads[0]) == len(payloads):
                aligned[row_id] = payloads[0]
                unmatched += len(payloads) - 1
            else:
                unmatched += len(payloads)
        for token in sentence.tokens:
            if exclude_punct and token.upos == "PUNCT":
                continue
            total += 1
            payload = aligned.get(token.id)
            if payload is None:
                missing += 1
                continue
            head, deprel = payload
            if head is not None and head == token.head:
                head_correct += 1
                if deprel is not None and deprel == token.deprel:
                    both_correct += 1
    if gold_count != predicted_count:
        raise EvalError(
            f"sentence count mismatch: {gold_count} gold vs {predicted_count} predicted"
        )
    return EvalReport(total, head_correct, both_correct, unmatched, missing)


def compare(report_a: EvalReport, report_b: EvalReport) -> DeltaReport:
    """Signed metric deltas of b over a; both reports must cover the same gold."""
    if report_a.total_tokens != report_b.total_tokens:
        raise EvalError(
            f"token count mismatch: {report_a.total_tokens} vs {report_b.total_tokens}"
        )
    # subtracted in whole hundredths, so 0.29 - 0.28 is 0.01, not 0.009999999999999953
    uas_delta = round(report_b.uas * 100) - round(report_a.uas * 100)
    las_delta = round(report_b.las * 100) - round(report_a.las * 100)
    return DeltaReport(uas_delta / 100, las_delta / 100)


def format_report(report: EvalReport) -> str:
    lines = [
        "metric        value",
        f"UAS           {report.uas:.2f}",
        f"LAS           {report.las:.2f}",
        "",
        f"total\t{report.total_tokens}",
        f"head_correct\t{report.head_correct}",
        f"both_correct\t{report.both_correct}",
        f"uas\t{report.uas:.2f}",
        f"las\t{report.las:.2f}",
        f"unmatched\t{report.unmatched_predicted_rows}",
        f"missing\t{report.missing_gold_rows}",
    ]
    return "\n".join(lines) + "\n"
