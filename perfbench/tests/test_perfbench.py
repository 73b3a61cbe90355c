"""Tests of the benchmark itself: seeded inputs, the eval oracle, tiny runs."""

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from perfbench import checks, corpus, cpuspeed
from udmorph.conllu import parse_conllu
from udmorph.evaluate import score
from udmorph.itdata import read_prediction_blocks

ROOT = Path(__file__).resolve().parents[2]


@pytest.mark.parametrize("workload", ["pipeline", "parallel", "eval", "long"])
def test_same_seed_same_bytes(workload):
    first = corpus.generate(workload, 7, scale=0.05)
    second = corpus.generate(workload, 7, scale=0.05)
    assert first == second
    other = corpus.generate(workload, 8, scale=0.05)
    assert other[0].corpus != first[0].corpus


def test_generated_gold_has_the_promised_shape():
    short = corpus.short_sentences(3, 50)
    assert all(4 <= len(s.words) <= 20 for s in short)
    chains = corpus.long_sentences(3, 2)
    for sentence in chains:
        assert 280 <= len(sentence.words) <= 320
        assert [w.head for w in sentence.words] == list(range(2, len(sentence.words) + 1)) + [0]


def _score(gold_text, predictions_text):
    report = score(parse_conllu(gold_text), read_prediction_blocks(predictions_text))
    return (
        report.total_tokens,
        report.head_correct,
        report.both_correct,
        report.unmatched_predicted_rows,
        report.missing_gold_rows,
        f"{report.uas:.2f}",
        f"{report.las:.2f}",
    )


def _oracle(o):
    return (o.total, o.head_correct, o.both_correct, o.unmatched, o.missing, o.uas, o.las)


def test_eval_oracle_agrees_with_score_on_clean_predictions():
    gold = corpus.short_sentences(5, 40, "eval")
    clean = "\n".join(
        "".join(corpus._row(i, w, str(w.head), w.deprel) + "\n" for i, w in enumerate(s.words, 1))
        for s in gold
    )
    tokens = sum(len(s.words) for s in gold)
    oracle = corpus.EvalOracle(tokens, tokens, tokens, 0, 0)
    assert _score(corpus.to_conllu(gold), clean) == _oracle(oracle)


def test_eval_oracle_agrees_with_score_on_degraded_predictions():
    gold = corpus.short_sentences(5, 300, "eval")
    predictions, oracle = corpus.degraded_predictions(5, gold)
    assert oracle.unmatched and oracle.missing and oracle.both_correct < oracle.head_correct
    assert _score(corpus.to_conllu(gold), predictions) == _oracle(oracle)


def test_replay_check_catches_a_wrong_log():
    before = "# sent_id = a\n1\tx\tx\tNOUN\tNNG\t_\t0\troot\t_\t_\n\n"
    after = before.replace("NNG", "NNP")
    log = "# total_tokens\t1\na\t1\tXPOS\tNNG\tNNP\tner-propn\n"
    assert checks.replay(before, after, log, 1) == []
    assert checks.replay(before, before, log, 1)
    assert checks.replay(before, after, log.replace("NNG\tNNP", "NNG\tNNB"), 1)


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=170,
    )


@pytest.mark.parametrize(
    "workload, trace, names",
    [
        ("parallel", "0", {"tokens_per_s", "setup_s", "peak_rss_mb"}),
        ("eval", "1", {"evaluate.score.us_per_token", "trace.overhead_ratio", "cli.eval.cpu_s"}),
        ("long", "1", {"conllu.validate.us_per_token", "rules.enrich.self_us_per_token"}),
    ],
)
def test_tiny_run_completes_correctly(tmp_path, workload, trace, names):
    result = _run(
        "--workload", workload, "--seed", "3", "--seconds", "0", "--trace", trace,
        "--scale", "0.03", "--results", str(tmp_path),
    )
    assert result.returncode == 0, result.stderr
    line = json.loads(result.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    assert names <= set(line["metrics"])
    record = json.loads((tmp_path / f"{workload}-seed3-trace{trace}.json").read_text("utf-8"))
    assert record["sha256"] and all(record["sha256"].values())


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    result = _run("--workload", "pipeline", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert result.returncode != 0
    assert '"metrics"' not in result.stdout


def test_every_damage_kind_fires_hundreds_of_times_at_scale_one():
    full, _ = corpus.generate("eval", 1)
    kinds = full.oracle.kinds
    assert set(kinds) == {"kept", "stray", *corpus.DAMAGE_KINDS}
    assert min(kinds.values()) >= 100


def test_every_aux_driven_correction_fires(tmp_path):
    from udmorph import cli

    full, _ = corpus.generate("pipeline", 1, scale=0.25)
    source, aux = tmp_path / "corpus.conllu", tmp_path / "aux.tsv"
    source.write_text(full.corpus, encoding="utf-8")
    aux.write_text(full.aux, encoding="utf-8")
    enriched, corrected, log = tmp_path / "e.conllu", tmp_path / "c.conllu", tmp_path / "log.tsv"
    assert cli.main(["enrich", str(source), "-o", str(enriched)]) == 0
    assert cli.main(
        ["correct", str(enriched), "--aux", str(aux), "--records", str(log), "-o", str(corrected)]
    ) == 0
    rule_ids = {
        line.split("\t")[5]
        for line in log.read_text(encoding="utf-8").splitlines()
        if not line.startswith("#")
    }
    assert {"ext-xpos", "ner-propn", "ner-common"} <= rule_ids


def test_speed_factor_divides_out_a_slow_spell():
    fast, slow = cpuspeed.REFERENCE_S, 2 * cpuspeed.REFERENCE_S
    series = [(i * 0.01, fast) for i in range(100)] + [(1 + i * 0.01, slow) for i in range(100)]
    series.append((2.5, 50 * slow))  # a preempted sample
    speed = cpuspeed.Speed({1: series})
    assert speed.factor([1], 0.0, 0.995) == pytest.approx(1.0)
    assert speed.factor([1], 1.0, 1.995) == pytest.approx(2.0)
    # a command that took 1 s in the fast spell and 2 s in the slow one
    assert 1.0 / speed.factor([1], 0.0, 0.995) == pytest.approx(2.0 / speed.factor([1], 1.0, 1.995))
    assert speed.factor([1], 0.0, 1.995) == pytest.approx(1.5, rel=0.01)
    assert speed.factor([1], 2.4, 2.6) == pytest.approx(3.0)  # clipped to OUTLIER x 5th percentile
    assert speed.factor([1], 5.0, 6.0) == pytest.approx(3.0)  # no sample: the nearest one


def test_probes_sample_and_stop():
    cpu = sorted(os.sched_getaffinity(0))[-1]
    probes = cpuspeed.Probes([cpu])
    time.sleep(0.3)
    speed = probes.stop()
    assert probes.stop() is speed
    assert len(speed.samples[cpu]) >= 5
    assert all(d > 0 for _, d in speed.samples[cpu])
