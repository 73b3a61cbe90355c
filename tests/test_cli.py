import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import udmorph
from conftest import FIG1_CONLLU, FIG1_FEATS, SEJONG_TREEBANK
from udmorph import cli
from udmorph.cli import _SPOOL_CHUNK, main
from udmorph.conllu import SEJONG_TAGS, UdmorphError, parse_conllu, serialize_conllu
from udmorph.corrections import correct_sentence, format_log_rows, log_header, read_aux_sidecar


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


BLANKED = FIG1_CONLLU.replace("Case=Disj", "_").replace("Case=Nom", "_").replace("Mood=Ind", "_")
# FIG1's gold rows as a model would predict them, in the 8 columns of `convert-it`
PREDICTIONS = "".join(
    "\t".join(line.split("\t")[:8]) + "\n"
    for line in FIG1_CONLLU.splitlines()
    if line and not line.startswith("#")
)


def test_enrich_restores_reference_feats(tmp_path):
    src = _write(tmp_path / "in.conllu", BLANKED)
    out = tmp_path / "out.conllu"
    assert main(["enrich", src, "-o", str(out)]) == 0
    feats = [
        line.split("\t")[5]
        for line in out.read_text(encoding="utf-8").splitlines()
        if line and not line.startswith("#")
    ]
    assert feats == FIG1_FEATS
    assert out.read_text(encoding="utf-8") == FIG1_CONLLU


def test_enrich_is_deterministic(tmp_path):
    src = _write(tmp_path / "in.conllu", BLANKED)
    out_a, out_b = tmp_path / "a.conllu", tmp_path / "b.conllu"
    assert main(["enrich", src, "-o", str(out_a)]) == 0
    assert main(["enrich", src, "-o", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_validate_exit_codes(tmp_path):
    good = _write(tmp_path / "good.conllu", FIG1_CONLLU)
    assert main(["validate", good]) == 0

    two_roots = (
        "1\t하나\t하나\tNUM\tNR\t_\t0\troot\t_\t_\n"
        "2\t둘\t둘\tNUM\tNR\t_\t0\troot\t_\t_\n\n"
    )
    bad = _write(tmp_path / "bad.conllu", two_roots)
    assert main(["validate", bad]) == 1


def test_validate_rejects_an_output_option_it_would_not_write(tmp_path, capsys):
    # validate writes only diagnostics, to stderr
    out = tmp_path / "out.txt"
    with pytest.raises(SystemExit) as exit_info:
        main(["validate", _write(tmp_path / "in.conllu", FIG1_CONLLU), "-o", str(out)])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: -o" in capsys.readouterr().err
    assert not out.exists()


def test_validate_names_a_sentence_with_empty_sent_id_by_its_position(tmp_path, capsys):
    text = (
        FIG1_CONLLU
        + "1\t하나\t하나\tNUM\tNR\t_\t0\troot\t_\t_\n\n"
        + "# sent_id =\n1\t하나\t하나\tNUM\tNR\t_\t1\tdep\t_\t_\n\n"
    )
    assert main(["validate", _write(tmp_path / "in.conllu", text)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "[root-count] 3: no root token (head == 0)",
        "[head-cycle] 3:1: head cycle through token 1",
    ]


def test_validate_names_a_sentence_whose_sent_id_holds_a_tab_by_its_position(tmp_path, capsys):
    text = FIG1_CONLLU + "# sent_id = a\tb\n1\t하나\t하나\tNUM\tNR\t_\t0\troot\t_\t_\n\n"
    assert main(["validate", _write(tmp_path / "in.conllu", text)]) == 1
    assert capsys.readouterr().err.splitlines() == ["[sent-id] 2: sent_id 'a\\tb' holds a tab"]


def test_format_errors_exit_2(tmp_path, capsys):
    missing = str(tmp_path / "nope.conllu")
    assert main(["validate", missing]) == 2
    truncated = _write(tmp_path / "trunc.conllu", "1\tx\tx\n\n")
    assert main(["validate", truncated]) == 2
    assert "columns" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,files,message",
    [
        (
            ["validate", "in.conllu"],
            {"in.conllu": "1\t하나\t하나\tNUM\tNR\t_\t²\troot\t_\t_\n\n"},
            "line 1: invalid HEAD value '²'",
        ),
        (
            ["enrich", "in.conllu"],
            {
                "in.conllu": "1\t하나\t하나\tNUM\tNR\t_\t02\tnummod\t_\t_\n"
                "2\t둘\t둘\tNUM\tNR\t_\t0\troot\t_\t_\n\n"
            },
            "line 1: invalid HEAD value '02'",
        ),
        (
            ["correct", "in.conllu", "--aux", "aux.tsv"],
            {"in.conllu": FIG1_CONLLU, "aux.tsv": "\t1\tPER\t_\n"},
            "line 1: empty sent_id",
        ),
        (
            ["correct", "in.conllu", "--aux", "aux.tsv"],
            {"in.conllu": FIG1_CONLLU, "aux.tsv": "fixture-1\tone\tPER\t_\n"},
            "line 1: token_id must be an integer",
        ),
        (
            ["stats", "log.tsv"],
            {"log.tsv": "# total_tokens\t10\ns1\tone\tUPOS\tADV\tNOUN\tr\n"},
            "line 2: token_id must be an integer",
        ),
        (
            ["stats", "log.tsv"],
            {"log.tsv": "# total_tokens\t10\ns1\t0\tUPOS\tADV\tNOUN\tr\n"},
            "line 2: token_id must be at least 1, got 0",
        ),
        (
            ["stats", "log.tsv"],
            {"log.tsv": "# total_tokens\tmany\n"},
            "line 1: total_tokens must be an integer",
        ),
        (["validate", "in.conllu"], {"in.conllu": b"1\t\xff\n\n"}, "'utf-8' codec"),
        (
            ["validate", "in.conllu"],
            {"in.conllu": f"1\t하나\t하나\tNUM\tNR\t_\t{'1' * 5000}\troot\t_\t_\n\n"},
            "line 1: invalid HEAD value: 5000 digits",
        ),
        (
            ["enrich", "in.conllu"],
            {"in.conllu": f"{'1' * 5000}\t하나\t하나\tNUM\tNR\t_\t0\troot\t_\t_\n\n"},
            "line 1: invalid token id: 5000 digits",
        ),
        (
            ["correct", "in.conllu", "--aux", "aux.tsv"],
            {"in.conllu": FIG1_CONLLU, "aux.tsv": "fixture-1\t1\tPER\t_\nfixture-1\t1\t_\t_\n"},
            "line 2: second aux entry for token fixture-1:1 (first on line 1)",
        ),
        (
            ["correct", "in.conllu", "--records", "log.tsv"],
            {"in.conllu": "# sent_id = a\tb\n1\t가격에\t가격+에\tADV\tNNG+JKB\t_\t0\troot\t_\t_\n\n"},
            "sent_id 'a\\tb' holds a tab",
        ),
    ],
    ids=[
        "head",
        "head-leading-zero",
        "aux-empty-sent-id",
        "aux-token-id",
        "log-token-id",
        "log-token-id-zero",
        "log-total",
        "not-utf8",
        "head-too-many-digits",
        "id-too-many-digits",
        "aux-duplicate-entry",
        "log-sent-id-tab",
    ],
)
def test_bad_input_exits_2_with_a_message(tmp_path, monkeypatch, capsys, argv, files, message):
    monkeypatch.chdir(tmp_path)  # outputs named relatively land here
    for name, content in files.items():
        if isinstance(content, bytes):
            (tmp_path / name).write_bytes(content)
        else:
            _write(tmp_path / name, content)
    argv = [str(tmp_path / arg) if arg in files else arg for arg in argv]
    assert main(argv) == 2
    assert message in capsys.readouterr().err


def test_enrich_output_validates_for_non_hangul_ending(tmp_path):
    src = _write(tmp_path / "in.conllu", "1\t가다가\t가+다가-\tVERB\tVV+EC\t_\t0\troot\t_\t_\n\n")
    out = tmp_path / "out.conllu"
    assert main(["enrich", src, "-o", str(out)]) == 0
    assert "\tCase=daga\t" in out.read_text(encoding="utf-8")
    assert main(["validate", str(out)]) == 0


def test_lenient_token_without_lemma_passes_every_stage(tmp_path):
    # XR is the tag the xr-noun correction would otherwise rewrite
    for tag in ("NNG", "XR"):
        text = f"1\t학교\t_\tNOUN\t{tag}\t_\t0\troot\t_\t_\n\n"
        src = _write(tmp_path / "in.conllu", text)
        enriched, corrected, records = (tmp_path / n for n in ("enriched", "corrected", "it.jsonl"))
        assert main(["enrich", src, "--lenient", "-o", str(enriched)]) == 0
        assert main(["correct", str(enriched), "--lenient", "-o", str(corrected)]) == 0
        assert main(["convert-it", str(corrected), "--lenient", "-o", str(records)]) == 0
        assert corrected.read_text(encoding="utf-8") == text
        output = json.loads(records.read_text(encoding="utf-8"))["output"]
        assert output == f"1\t학교\t_\tNOUN\t{tag}\t_\t0\troot\n"


def test_correct_writes_log_and_stats(tmp_path, capsys):
    source = (
        "# sent_id = s1\n"
        "1\t가격에\t가격+에\tADV\tNNG+JKB\t_\t2\tobl\t_\t_\n"
        "2\t올랐다\t오르+았+다\tVERB\tVV+EP+EF\t_\t0\troot\t_\t_\n\n"
    )
    src = _write(tmp_path / "in.conllu", source)
    out = tmp_path / "out.conllu"
    log = tmp_path / "records.tsv"
    assert main(["correct", src, "-o", str(out), "--records", str(log)]) == 0
    assert "\tNOUN\t" in out.read_text(encoding="utf-8").splitlines()[1]
    assert "s1\t1\tUPOS\tADV\tNOUN\tcanonical-upos" in log.read_text(encoding="utf-8")

    assert main(["stats", str(log)]) == 0
    captured = capsys.readouterr().out
    assert "# UPOS corrections" in captured
    assert "ADV\tNOUN\t1\t0.5000" in captured


def test_stats_reads_the_log_correct_writes_for_an_empty_corpus(tmp_path, capsys):
    src = _write(tmp_path / "empty.conllu", "")
    log = tmp_path / "log.tsv"
    assert main(["correct", src, "-o", str(tmp_path / "out.conllu"), "--records", str(log)]) == 0
    assert log.read_text(encoding="utf-8").startswith("# total_tokens\t0\n")
    capsys.readouterr()
    assert main(["stats", str(log)]) == 0
    assert capsys.readouterr().out == (
        "# total_tokens\t0\n"
        "# UPOS corrections\noriginal\tcorrected\tcount\tratio\n"
        "# XPOS corrections\noriginal\tcorrected\tcount\tratio\n"
    )


def test_correct_takes_no_rule_pack(tmp_path, capsys):
    src = _write(tmp_path / "in.conllu", FIG1_CONLLU)
    pack = _write(tmp_path / "x.rules", "#unidive-rules v1\nrule a 1 tag=NNG => Case=Nom\n")
    out = tmp_path / "out.conllu"
    with pytest.raises(SystemExit) as exit_info:
        main(["correct", src, "--rules", pack, "-o", str(out)])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --rules" in capsys.readouterr().err
    assert not out.exists()


@settings(max_examples=60, deadline=None)
@given(text=SEJONG_TREEBANK, cut=st.integers(0, 3))
@example(text=FIG1_CONLLU * 2, cut=1)
def test_stats_of_concatenated_logs_is_stats_of_the_whole_corpus_log(text, cut):
    sentences = parse_conllu(text)
    parts = {
        "whole": sentences,
        "head": sentences[: min(cut, len(sentences))],
        "tail": sentences[min(cut, len(sentences)) :],
    }
    with tempfile.TemporaryDirectory() as workdir:
        workdir = Path(workdir)

        def stats(log):
            out = workdir / f"{log.stem}.stats"
            return main(["stats", str(log), "-o", str(out)]), out.exists() and out.read_bytes()

        logs = {}
        for name, part in parts.items():
            source = _write(workdir / f"{name}.conllu", serialize_conllu(part))
            logs[name] = workdir / f"{name}.tsv"
            argv = ["correct", source, "--records", str(logs[name]), "-o", str(workdir / "out")]
            assert main(argv) == 0
        both = workdir / "both.tsv"
        both.write_bytes(logs["head"].read_bytes() + logs["tail"].read_bytes())
        assert stats(both) == stats(logs["whole"])


def test_an_unwritable_correction_log_exits_2_before_any_output(tmp_path, capsys):
    src = _write(tmp_path / "in.conllu", FIG1_CONLLU)
    out = tmp_path / "out.conllu"
    log = tmp_path / "no" / "such" / "dir" / "log.tsv"
    assert main(["correct", src, "-o", str(out), "--records", str(log)]) == 2
    assert "log.tsv" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("output", [[], ["-o", "out.conllu"]], ids=["stdout", "file"])
def test_a_correction_log_named_dash_exits_2_before_any_output(tmp_path, monkeypatch, capsys, output):
    monkeypatch.chdir(tmp_path)
    src = _write(tmp_path / "in.conllu", FIG1_CONLLU)
    assert main(["correct", src, "--records", "-", *output]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "udmorph correct: --records must name a file, not '-'\n")
    assert [p.name for p in tmp_path.iterdir()] == ["in.conllu"]


def test_correct_warns_about_aux_entries_matching_no_sentence(tmp_path, capsys):
    src = _write(tmp_path / "in.conllu", FIG1_CONLLU.replace("fixture-1", "s1"))
    aux = _write(tmp_path / "aux.tsv", "s1\t1\tPER\t_\ns9\t1\tPER\t_\ns8\t2\t_\t_\n")
    log = tmp_path / "records.tsv"
    argv = ["correct", src, "--aux", aux, "-o", str(tmp_path / "out"), "--records", str(log)]
    assert main(argv) == 0
    warnings = capsys.readouterr().err
    assert warnings == "WARNING: 2 aux entries match no sentence (first sent_id 's9')\n"
    assert "s1\t1\t" in log.read_text(encoding="utf-8")


def test_correct_refuses_a_second_sentence_with_the_sent_id_of_an_aux_group(tmp_path, capsys):
    sentence = "# sent_id = s1\n1\t학교\t학교\tNOUN\tNNG\t_\t0\troot\t_\t_\n\n"
    src = _write(tmp_path / "in.conllu", sentence * 2)
    aux = _write(tmp_path / "aux.tsv", "s1\t1\tLOC\t_\n")
    (tmp_path / "out").write_bytes(b"old output\n")
    (tmp_path / "log.tsv").write_bytes(b"old log\n")
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    argv = ["correct", src, "--aux", aux, "--records", str(tmp_path / "log.tsv")]
    assert main([*argv, "-o", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        "udmorph correct: sent_id 's1' names more than one sentence, so each would take"
        " its aux entries; give every sentence a unique sent_id\n"
    )
    # no temporary file is left, and both outputs keep their bytes
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
    # a repeated sent_id that names no aux entries is corrected as before
    assert main(["correct", src, "-o", str(tmp_path / "plain")]) == 0


@st.composite
def _treebank_and_aux(draw):
    """SEJONG_TREEBANK text and an aux sidecar for its named sentences:
    drawn tokens, labels and ext_xpos cells, some of them shared."""
    text = draw(SEJONG_TREEBANK)
    tags = st.lists(st.sampled_from(sorted(SEJONG_TAGS)), min_size=1, max_size=3).map("+".join)
    rows = {}
    for sentence in parse_conllu(text):
        if not sentence.sent_id:
            continue
        for token_id in draw(st.sets(st.integers(1, len(sentence.tokens)), max_size=3)):
            label = draw(st.sampled_from(["_", "PER", "LOC"]))
            rows[sentence.sent_id, token_id] = f"{label}\t{draw(st.one_of(st.just('_'), tags))}"
    return text, "".join(f"{sid}\t{tid}\t{cells}\n" for (sid, tid), cells in rows.items())


def _verbs_tagged_noun(sentences):
    """CoNLL-U text of `sentences` sentences of ten VV-based words tagged
    NOUN: one canonical-upos record per word."""
    words = "".join(
        f"{k}\t갔다\t가+았+다\tNOUN\tVV+EP+EF\t_\t{int(k > 1)}\t{'dep' if k > 1 else 'root'}\t_\t_\n"
        for k in range(1, 11)
    )
    return "".join(f"# sent_id = s-{i}\n{words}\n" for i in range(sentences))


# a log of 4,000 rows, more than twice the chunk `correct` copies from its spool
_LONG_LOG_CASE = (
    _verbs_tagged_noun(400),
    "".join(f"s-{i}\t2\tPER\tVV+EP+EF\n" for i in range(0, 400, 3)),
)


@settings(max_examples=60, deadline=None)
@given(case=_treebank_and_aux())
@example(case=_LONG_LOG_CASE)
def test_the_spooled_log_equals_the_log_written_in_one_call(case):
    text, sidecar = case
    entries_by_sentence = {}
    for entry in read_aux_sidecar(sidecar):
        entries_by_sentence.setdefault(entry.sent_id, []).append(entry)
    records, total_tokens, taken = [], 0, set()
    try:
        for sentence in parse_conllu(text):
            total_tokens += len(sentence.tokens)
            entries = entries_by_sentence.get(sentence.sent_id or "", [])
            if entries:  # a second sentence with these entries' sent_id is refused
                if sentence.sent_id in taken:
                    raise UdmorphError(sentence.sent_id)
                taken.add(sentence.sent_id)
            records += correct_sentence(sentence, entries)[1]
        expected = log_header(total_tokens) + format_log_rows(records)
    except UdmorphError:
        expected = None
    with tempfile.TemporaryDirectory() as workdir:
        workdir = Path(workdir)
        argv = ["correct", _write(workdir / "in.conllu", text), "--aux", _write(workdir / "aux.tsv", sidecar)]
        code = main([*argv, "--records", str(workdir / "log.tsv"), "-o", str(workdir / "out")])
        if expected is None:
            assert code == 2
            return
        assert code == 0
        log = (workdir / "log.tsv").read_bytes()
    assert log == expected.encode("utf-8")
    if case is _LONG_LOG_CASE:
        assert len(log) > 2 * _SPOOL_CHUNK


def test_a_correction_log_that_is_not_a_regular_file_is_written_in_place(tmp_path, monkeypatch):
    inputs, workdir, temporary = tmp_path / "inputs", tmp_path / "work", tmp_path / "tmp"
    for directory in (inputs, workdir, temporary):
        directory.mkdir()
    src = _write(inputs / "in.conllu", _LONG_LOG_CASE[0])
    monkeypatch.chdir(workdir)
    monkeypatch.setattr(tempfile, "tempdir", str(temporary))
    assert main(["correct", src, "-o", "plain"]) == 0
    assert main(["correct", src, "--records", os.devnull, "-o", "logged"]) == 0
    assert (workdir / "logged").read_bytes() == (workdir / "plain").read_bytes()
    assert sorted(p.name for p in workdir.iterdir()) == ["logged", "plain"]
    assert [p.name for p in inputs.iterdir()] == ["in.conllu"]
    assert list(temporary.iterdir()) == []


# Runs `python -m udmorph ARGS` and prints its exit code and ru_maxrss.  It is
# started with -S and stays small: Linux carries a parent's resident-set
# high-water mark into its child's ru_maxrss through fork and exec.
_MAX_RSS = """
import os, sys
argv = [sys.executable, "-m", "udmorph", *sys.argv[1:]]
_, status, usage = os.wait4(os.posix_spawn(sys.executable, argv, os.environ), 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def _max_rss_kb(*argv: str) -> int:
    """The ru_maxrss of `python -m udmorph ARGV`, which must exit 0 and
    write nothing to stderr."""
    result = subprocess.run(
        [sys.executable, "-S", "-c", _MAX_RSS, *argv],
        capture_output=True,
        text=True,
        env=_child_env(),
        timeout=60,
    )
    code, rss_kb = map(int, result.stdout.split())
    assert (code, result.stderr) == (0, "")
    return rss_kb


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is counted in KB on Linux")
def test_correct_holds_no_memory_per_correction_record(tmp_path):
    # 25,000 records, which held until the end cost about 2.5 MB
    src = _write(tmp_path / "in.conllu", _verbs_tagged_noun(2_500))
    out = str(tmp_path / "out")
    log = tmp_path / "log.tsv"
    with_log = _max_rss_kb("correct", src, "--records", str(log), "-o", out)
    assert log.read_text(encoding="utf-8").count("\tcanonical-upos\n") >= 20_000
    assert with_log - _max_rss_kb("correct", src, "-o", out) <= 1024


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is counted in KB on Linux")
def test_stats_holds_no_memory_per_log_record(tmp_path):
    # 25,000 rows, one per token as `correct` logs them, which held as
    # records until the end cost about 13 MB
    rows = [f"s-{i}\t{k}\tUPOS\tNOUN\tVERB\tcanonical-upos\n" for i in range(2_500) for k in range(1, 11)]
    out = tmp_path / "stats.tsv"

    def max_rss_kb(rows):
        log = _write(tmp_path / "log.tsv", "# total_tokens\t25000\n" + "".join(rows))
        return _max_rss_kb("stats", log, "-o", str(out))

    every_row = max_rss_kb(rows)
    assert "NOUN\tVERB\t25000\t1.0000\n" in out.read_text(encoding="utf-8")
    assert every_row - max_rss_kb(rows[:1]) <= 1024


def _verbs_tagged_noun_of_each_length(sentences):
    """CoNLL-U text of `sentences` sentences of 1 to 20 VV-based words, in
    turn, tagged NOUN, so `correct` rebuilds every sentence."""
    return "".join(
        f"# sent_id = s-{i}\n"
        + "".join(
            f"{k}\t갔다\t가+았+다\tNOUN\tVV+EP+EF\t_\t{int(k > 1)}\t{'dep' if k > 1 else 'root'}\t_\t_\n"
            for k in range(1, 2 + i % 20)
        )
        + "\n"
        for i in range(sentences)
    )


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is counted in KB on Linux")
def test_correct_holds_no_memory_per_sentence(tmp_path):
    # a sentence rebuilt through `tuple()` of a generator leaves a block in
    # CPython's free list of its length, about 0.5 MB more for the 4x input
    def max_rss_kb(sentences):
        src = _write(tmp_path / "in.conllu", _verbs_tagged_noun_of_each_length(sentences))
        return _max_rss_kb("correct", src, "-o", str(tmp_path / "out"))

    once = max_rss_kb(1_500)
    assert max_rss_kb(6_000) - once <= 256


def test_stats_requires_denominator(tmp_path, capsys):
    log = _write(tmp_path / "records.tsv", "s1\t1\tUPOS\tADV\tNOUN\tr\n")
    assert main(["stats", log]) == 2
    assert "total_tokens" in capsys.readouterr().err
    assert main(["stats", log, "--total-tokens", "10", "-o", str(tmp_path / "s.tsv")]) == 0
    assert "0.1000" in (tmp_path / "s.tsv").read_text(encoding="utf-8")


def test_convert_it_jsonl(tmp_path):
    src = _write(tmp_path / "in.conllu", FIG1_CONLLU)
    out = tmp_path / "it.jsonl"
    assert main(["convert-it", src, "-o", str(out), "--instruction", "구문을 분석해줘"]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 1
    payload = json.loads(lines[0])
    assert payload["instruction"] == "구문을 분석해줘"
    assert payload["input"].count("\n") == 6
    assert payload["output_offset"] == len("구문을 분석해줘") + 1 + len(payload["input"])


def test_convert_it_writes_an_explicitly_empty_instruction(tmp_path):
    src = _write(tmp_path / "in.conllu", FIG1_CONLLU)
    out = tmp_path / "it.jsonl"
    assert main(["convert-it", src, "-o", str(out), "--instruction", ""]) == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["instruction"] == ""
    assert payload["output_offset"] == 1 + len(payload["input"])


def test_eval_identity(tmp_path, capsys):
    gold = _write(tmp_path / "gold.conllu", FIG1_CONLLU)
    pred = _write(tmp_path / "pred.txt", PREDICTIONS)
    assert main(["eval", gold, pred]) == 0
    captured = capsys.readouterr().out
    assert "uas\t100.00" in captured
    assert "las\t100.00" in captured


def test_eval_exclude_punct(tmp_path, capsys):
    gold = _write(tmp_path / "gold.conllu", FIG1_CONLLU)
    pred = _write(tmp_path / "pred.txt", "1\t학교\t학교\tNOUN\tNNG\t_\t5\tnsubj\n")
    assert main(["eval", gold, pred, "--exclude-punct"]) == 0
    assert "total\t5" in capsys.readouterr().out


@pytest.mark.parametrize(
    "gold,predictions,message",
    [
        (FIG1_CONLLU * 3, PREDICTIONS, "sentence count mismatch: 3 gold vs 1 predicted"),
        (FIG1_CONLLU, "\n".join([PREDICTIONS] * 3), "sentence count mismatch: 1 gold vs 3 predicted"),
        # the gold error wins over the count mismatch it also has
        (FIG1_CONLLU + "1\tx\n", PREDICTIONS, "line 10: expected 10 tab-separated columns, got 2"),
    ],
    ids=["more-gold", "more-predictions", "malformed-gold"],
)
def test_eval_errors_exit_2_and_write_no_report(tmp_path, capsys, gold, predictions, message):
    gold_path = _write(tmp_path / "gold.conllu", gold)
    predictions_path = _write(tmp_path / "pred.txt", predictions)
    report = tmp_path / "report.txt"
    assert main(["eval", gold_path, predictions_path, "-o", str(report)]) == 2
    assert capsys.readouterr().err == f"udmorph eval: {message}\n"
    assert not report.exists()


def test_eval_reads_gold_and_predictions_in_step(tmp_path, monkeypatch, capsys):
    from udmorph import conllu, itdata

    drawn = []

    def logged(side, iterate):
        def wrapper(*args, **kwargs):
            for item in iterate(*args, **kwargs):
                drawn.append(side)
                yield item

        return wrapper

    monkeypatch.setattr(conllu, "iter_sentences", logged("gold", conllu.iter_sentences))
    monkeypatch.setattr(
        itdata, "iter_prediction_blocks", logged("predicted", itdata.iter_prediction_blocks)
    )
    gold = _write(tmp_path / "gold.conllu", FIG1_CONLLU * 3)
    pred = _write(tmp_path / "pred.txt", "\n".join([PREDICTIONS] * 3))
    assert main(["eval", gold, pred]) == 0
    assert "uas\t100.00" in capsys.readouterr().out
    assert drawn == ["gold", "predicted"] * 3


def test_stats_one_record_per_category(tmp_path, capsys):
    log_lines = ["# total_tokens\t100"]
    upos = [("ADV", "NOUN"), ("NOUN", "PROPN"), ("VERB", "ADJ"), ("ADV", "PROPN"), ("ADV", "ADJ")]
    for i, (orig, corr) in enumerate(upos, start=1):
        log_lines.append(f"s1\t{i}\tUPOS\t{orig}\t{corr}\tr")
    log = _write(tmp_path / "records.tsv", "\n".join(log_lines) + "\n")
    assert main(["stats", log]) == 0
    out = capsys.readouterr().out
    rows = [l for l in out.splitlines() if l and not l.startswith(("#", "original"))]
    assert len(rows) == 5
    assert all(len(row.split("\t")) == 4 for row in rows)
    assert "ADV\tNOUN\t1\t0.0100" in out


_TINY_PACK = "#unidive-rules v1\nlanguage ko\nrule only 10 tag=NNG => Number=Plur\n"
_AUX = "fixture-1\t1\tPER\t_\n"
_LOG = "# total_tokens\t10\ns1\t1\tUPOS\tADV\tNOUN\tr\n"

# Each variant of an input must read as its plain text does.
_VARIANTS = {"bom": lambda text: "\ufeff" + text, "crlf": lambda text: text.replace("\n", "\r\n")}


@pytest.mark.parametrize(
    "argv,files,target",
    [
        (["enrich", "in.conllu", "-o", "out"], {"in.conllu": BLANKED}, "in.conllu"),
        (["enrich", "-", "-o", "out"], {"-": BLANKED}, "-"),
        (
            ["eval", "gold.conllu", "pred.txt", "-o", "out"],
            {"gold.conllu": FIG1_CONLLU, "pred.txt": PREDICTIONS},
            "gold.conllu",
        ),
        (
            ["eval", "gold.conllu", "pred.txt", "-o", "out"],
            {"gold.conllu": FIG1_CONLLU, "pred.txt": PREDICTIONS},
            "pred.txt",
        ),
        (
            ["correct", "in.conllu", "--aux", "aux.tsv", "--records", "log.tsv", "-o", "out"],
            {"in.conllu": FIG1_CONLLU, "aux.tsv": _AUX},
            "aux.tsv",
        ),
        (
            ["enrich", "in.conllu", "--rules", "tiny.rules", "-o", "out"],
            {"in.conllu": BLANKED, "tiny.rules": _TINY_PACK},
            "tiny.rules",
        ),
        (["stats", "log.tsv", "-o", "out"], {"log.tsv": _LOG}, "log.tsv"),
        (
            ["eval", "-", "pred.txt", "-o", "out"],
            {"-": FIG1_CONLLU, "pred.txt": PREDICTIONS},
            "-",
        ),
        (
            ["eval", "gold.conllu", "-", "-o", "out"],
            {"gold.conllu": FIG1_CONLLU, "-": PREDICTIONS},
            "-",
        ),
        (
            ["correct", "in.conllu", "--aux", "-", "--records", "log.tsv", "-o", "out"],
            {"in.conllu": FIG1_CONLLU, "-": _AUX},
            "-",
        ),
        (
            ["enrich", "in.conllu", "--rules", "-", "-o", "out"],
            {"in.conllu": BLANKED, "-": _TINY_PACK},
            "-",
        ),
        (["stats", "-", "-o", "out"], {"-": _LOG}, "-"),
    ],
    ids=[
        "corpus",
        "stdin",
        "eval-gold",
        "eval-predictions",
        "aux",
        "rules",
        "log",
        "eval-gold-stdin",
        "eval-predictions-stdin",
        "aux-stdin",
        "rules-stdin",
        "log-stdin",
    ],
)
def test_a_leading_bom_is_ignored_on_every_input(tmp_path, monkeypatch, argv, files, target):
    """A leading BOM and CRLF line endings read as the plain text does, from
    a file or from stdin."""

    def run(variant: str) -> tuple[int, dict[str, bytes]]:
        workdir = tmp_path / variant
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        for name, text in files.items():
            if name == target and variant in _VARIANTS:
                text = _VARIANTS[variant](text)
            data = text.encode("utf-8")
            if name == "-":
                # as CPython builds stdin on POSIX: no newline translation
                stdin = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline="\n")
                monkeypatch.setattr(sys, "stdin", stdin)
            else:
                (workdir / name).write_bytes(data)
        status = main(argv)
        return status, {p.name: p.read_bytes() for p in workdir.iterdir() if p.name not in files}

    plain = run("plain")
    assert plain[0] == 0 and plain[1]["out"]
    for variant in _VARIANTS:
        assert run(variant) == plain, variant


def _child_env() -> dict[str, str]:
    """The environment for a child `python -m udmorph` that imports the same
    udmorph checkout as this test, from any working directory, and never an
    installed copy."""
    env = dict(os.environ)
    package_root = str(Path(udmorph.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return env


@pytest.mark.parametrize("encoding", ["latin-1", "cp949"])
def test_stdin_and_stdout_are_utf8_whatever_the_locale(encoding):
    def enrich(io_encoding: str) -> subprocess.CompletedProcess:
        env = _child_env()
        env["PYTHONIOENCODING"] = io_encoding
        return subprocess.run(
            [sys.executable, "-m", "udmorph", "enrich", "-"],
            input=BLANKED.encode("utf-8"),
            capture_output=True,
            env=env,
        )

    reference = enrich("utf-8")
    assert (reference.returncode, reference.stdout) == (0, FIG1_CONLLU.encode("utf-8"))
    result = enrich(encoding)
    assert (result.returncode, result.stdout, result.stderr) == (0, reference.stdout, b"")


@pytest.mark.parametrize(
    "argv",
    [
        ["enrich", "missing.conllu", "-o", "out"],
        ["convert-it", "missing.conllu", "-o", "out"],
        ["correct", "missing.conllu", "-o", "out"],
        ["correct", "in.conllu", "--aux", "missing.tsv", "-o", "out"],
    ],
    ids=["enrich-corpus", "convert-it-corpus", "correct-corpus", "correct-aux"],
)
def test_a_missing_input_exits_2_before_any_output(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    _write(tmp_path / "in.conllu", FIG1_CONLLU)
    assert main(argv) == 2
    assert "missing" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv,names",
    [
        (["eval", "-", "-", "-o", "out"], "gold, predictions"),
        (["correct", "-", "--aux", "-", "-o", "out"], "inputs, aux"),
        (["correct", "--aux", "-", "-o", "out"], "inputs, aux"),
        (["enrich", "in.conllu", "-", "--rules", "-", "-o", "out"], "inputs, rules"),
    ],
    ids=["eval", "correct", "correct-default-corpus", "enrich-rules"],
)
def test_stdin_for_more_than_one_input_exits_2_before_any_output(
    tmp_path, monkeypatch, capsys, argv, names
):
    monkeypatch.chdir(tmp_path)
    _write(tmp_path / "in.conllu", FIG1_CONLLU)
    assert main(argv) == 2
    assert f"more than one input reads stdin ('-'): {names}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# Runs `udmorph.cli.main` on the arguments, if any, in a fresh interpreter
# and prints the udmorph modules it loaded, then the loaded ones of the
# costly stdlib modules that a command's start-up can do without.
_LOADED_MODULES = """
import sys
import udmorph
if sys.argv[1:]:
    import udmorph.cli
    try:
        udmorph.cli.main(sys.argv[1:])
    except SystemExit as exit_:
        assert exit_.code == 0, exit_.code
print(" ".join(sorted(m for m in sys.modules if m.startswith("udmorph."))))
costly = (
    "argparse", "decimal", "dataclasses", "gettext", "importlib.resources", "inspect", "json",
    "locale", "logging", "pkgutil",
)
print(" ".join(m for m in costly if m in sys.modules))
"""


@pytest.mark.parametrize(
    "argv,modules,stdlib",
    [
        ([], "", ""),
        (["validate", "in.conllu"], "cli conllu validation", ""),
        (["convert-it", "in.conllu", "-o", "out"], "cli conllu itdata", "json"),
        (["eval", "in.conllu", "pred.txt", "-o", "out"], "cli conllu evaluate itdata", ""),
        (["enrich", "in.conllu", "-o", "out"], "cli conllu rules", ""),
        (["stats", "log.tsv", "-o", "out"], "cli conllu corrections", ""),
        (
            ["correct", "in.conllu", "--aux", "aux.tsv", "--records", "log.out", "-o", "out"],
            "cli conllu corrections",
            "",
        ),
        # only a command line the strict reader declines loads argparse
        (["enrich", "--help"], "cli conllu", "argparse gettext locale"),
    ],
    ids=["import", "validate", "convert-it", "eval", "enrich", "stats", "correct", "help"],
)
def test_each_command_loads_only_the_modules_it_runs(tmp_path, argv, modules, stdlib):
    _write(tmp_path / "in.conllu", FIG1_CONLLU)
    _write(tmp_path / "pred.txt", PREDICTIONS)
    _write(tmp_path / "log.tsv", _LOG)
    # one entry that matches and one that does not, which warns
    _write(tmp_path / "aux.tsv", "fixture-1\t1\tPER\t_\ns9\t1\tPER\t_\n")
    # -S: no site `.pth` file may load a module before udmorph does
    result = subprocess.run(
        [sys.executable, "-S", "-c", _LOADED_MODULES, *argv],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=_child_env(),
    )
    assert result.returncode == 0, result.stderr
    loaded, loaded_stdlib = result.stdout.split("\n")[-3:-1]
    assert loaded.split() == [f"udmorph.{name}" for name in modules.split()]
    # at most these: an interpreter may not need one of them for the help
    assert set(loaded_stdlib.split()) <= set(stdlib.split())
    assert ("argparse" in loaded_stdlib) == ("argparse" in stdlib)


# Argument lists for each command and for none: mostly the command's own
# options spelled exactly, also any command's, and options abbreviated,
# with `=`, help, `--` and one no command has; values that pass as one and
# `-x`, which does not; positionals before, between and after options.
_OTHER = st.sampled_from([
    "--out", "--output=x", "-ox", "--len", "--lenient=1", "--rul", "--rules=r", "--aux=a", "--rec",
    "--records=l", "--total", "--total-tokens=5", "--instr", "--exclude", "--jobs", "-h", "--help", "--",
])
_VALUES = st.sampled_from(["-", "-x", "", "٣", "5"])
_ANY_OPTION = st.sampled_from(sorted({
    name for _, _, arguments in cli._COMMANDS.values() for names, _ in arguments for name in names
    if name.startswith("-")
}))


def _argv_items(command):
    own = [
        name for names, _ in cli._COMMANDS.get(command, ("", "", ()))[2] for name in names
        if name.startswith("-")
    ]
    options = st.sampled_from(own) if own else _ANY_OPTION
    return st.lists(
        st.one_of(
            *[_VALUES.map(lambda value: [value])] * 3,
            *[options.map(lambda option: [option])] * 2,
            *[st.tuples(options, _VALUES).map(list)] * 4,
            st.tuples(_ANY_OPTION, _VALUES).map(list),
            _OTHER.map(lambda option: [option]),
            st.tuples(_OTHER, _VALUES).map(list),
        ),
        max_size=5,
    ).map(lambda items: [command] + [arg for item in items for arg in item])


_ARGVS = st.one_of(
    st.sampled_from([*cli._COMMANDS] * 3 + ["frob", "enr", "-h"]).flatmap(_argv_items),
    st.just([]),
)


def _argparse_outcome(argv):
    """`vars()` of the namespace argparse gives for `argv`, or its exit code."""
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return vars(cli._build_parser().parse_args(argv))
    except SystemExit as exit_:
        return exit_.code


@settings(max_examples=1000, deadline=None)
@given(argv=_ARGVS)
@example(argv=["validate", "gold.conllu"])
@example(argv=["eval", "gold.conllu", "predictions.txt", "-o", "eval.txt"])
@example(argv=["enrich", "gold.conllu", "-o", "enriched.conllu"])
@example(argv=[
    "correct", "enriched.conllu", "--aux", "aux.tsv", "--records", "corrections.tsv",
    "-o", "corrected.conllu",
])
@example(argv=["convert-it", "corrected.conllu", "-o", "records.jsonl"])
@example(argv=["enrich", "--help"])
@example(argv=["stats", "-o", "-", "--total-tokens", "٣", "log.tsv"])
@example(argv=["eval", "--exclude-punct", "-", "p.txt", "--lenient"])
@example(argv=["stats", "5", "-"])  # more positionals than the command takes
@example(argv=["eval", "-", "5", "٣"])
def test_the_strict_reader_reads_as_argparse_does_or_declines(argv):
    read = cli._read_argv(argv)
    # never a namespace where argparse exits, nor one argparse would not give
    assert read is None or vars(read) == _argparse_outcome(argv)


def test_the_public_names_resolve_on_first_use():
    assert sorted(udmorph.__all__) == [
        "AuxAnnotation",
        "ConversionStats",
        "CorrectionRecord",
        "DeltaReport",
        "Diagnostic",
        "EvalReport",
        "FeatureBag",
        "ITRecord",
        "Morpheme",
        "ParsedRow",
        "Rule",
        "RulePack",
        "Sentence",
        "Token",
        "aggregate_stats",
        "compare",
        "correct_sentence",
        "emit_jsonl",
        "enrich_sentence",
        "from_it_output",
        "load_default_pack",
        "load_rule_pack",
        "parse_conllu",
        "score",
        "serialize_conllu",
        "to_it_record",
        "validate",
    ]
    for name in udmorph.__all__:
        assert getattr(udmorph, name).__name__ == name
    assert udmorph.__version__ == "0.1.0"
    with pytest.raises(AttributeError, match="no_such_name"):
        udmorph.no_such_name


def test_shell_pipeline_composes(tmp_path):
    src = _write(tmp_path / "in.conllu", BLANKED)
    env = _child_env()
    stages = [["enrich", src], ["correct", "-"], ["convert-it", "-"]]
    processes, upstream = [], None
    for args in stages:
        with open(tmp_path / f"{args[0]}.err", "wb") as stderr:
            process = subprocess.Popen(
                [sys.executable, "-m", "udmorph", *args],
                stdin=upstream,
                stdout=subprocess.PIPE,
                stderr=stderr,
                env=env,
                text=True,
            )
        if upstream is not None:
            upstream.close()
        processes.append(process)
        upstream = process.stdout
    stdout, _ = processes[-1].communicate()
    for args, process in zip(stages, processes):
        stderr = (tmp_path / f"{args[0]}.err").read_text(encoding="utf-8", errors="replace")
        assert process.wait() == 0, f"udmorph {args[0]} exited {process.returncode}: {stderr}"
    payload = json.loads(stdout)
    assert "Case=Disj" in payload["input"]
    assert payload["output"].endswith("5\tpunct\n")


_THREE_ZZZ = "".join(
    f"{i}\t학교\t학교\tNOUN\tZZZ\t_\t{0 if i == 1 else 1}\t{'root' if i == 1 else 'dep'}\t_\t_\n"
    for i in (1, 2, 3)
) + "\n"


@pytest.mark.parametrize(
    "argv,files,warning",
    [
        (
            ["enrich", "--lenient", "in.conllu"],
            {"in.conllu": _THREE_ZZZ},
            "unknown XPOS tag 'ZZZ' mapped to NA 3 time(s), first on line 1",
        ),
        (
            ["correct", "in.conllu", "--aux", "aux.tsv"],
            {
                "in.conllu": FIG1_CONLLU.replace("fixture-1", "s1"),
                "aux.tsv": "s1\t1\tPER\t_\ns9\t1\tPER\t_\ns8\t2\t_\t_\n",
            },
            "2 aux entries match no sentence (first sent_id 's9')",
        ),
    ],
    ids=["enrich-lenient", "correct-aux"],
)
def test_a_warning_is_one_stderr_line(tmp_path, argv, files, warning):
    for name, text in files.items():
        _write(tmp_path / name, text)
    result = subprocess.run(
        [sys.executable, "-m", "udmorph", *argv, "-o", "out"],
        capture_output=True,
        cwd=tmp_path,
        env=_child_env(),
    )
    assert (result.returncode, result.stdout) == (0, b"")
    assert result.stderr == f"WARNING: {warning}\n".encode("utf-8")


def test_multiple_input_files_concatenate(tmp_path):
    first = _write(tmp_path / "a.conllu", BLANKED)
    second = _write(tmp_path / "b.conllu", BLANKED)
    out = tmp_path / "out.conllu"
    assert main(["enrich", first, second, "-o", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == FIG1_CONLLU * 2


@settings(max_examples=25, deadline=None)
@given(text=SEJONG_TREEBANK, data=st.data())
def test_a_failed_command_leaves_every_named_output_as_it_was(text, data):
    lines = text.split("\n")
    lines.insert(data.draw(st.integers(0, len(lines) - 1)), "1\tmalformed")
    for command, *options in (["enrich"], ["correct", "--records", "log.tsv"], ["convert-it"]):
        with tempfile.TemporaryDirectory() as workdir:
            workdir = Path(workdir)
            _write(workdir / "in.conllu", "\n".join(lines))
            (workdir / "out").write_bytes(b"old output\n")
            (workdir / "log.tsv").write_bytes(b"old log\n")
            before = {p.name: p.read_bytes() for p in workdir.iterdir()}
            argv = [command, "in.conllu", *options, "-o", "out"]
            assert main([str(workdir / a) if a in before else a for a in argv]) == 2
            # no temporary file is left, and every output keeps its bytes
            assert {p.name: p.read_bytes() for p in workdir.iterdir()} == before, command


def test_an_input_named_as_the_output_is_read_before_it_is_replaced(tmp_path):
    same = _write(tmp_path / "same.conllu", BLANKED)
    _write(tmp_path / "in.conllu", BLANKED)
    assert main(["enrich", str(tmp_path / "in.conllu"), "-o", str(tmp_path / "other.conllu")]) == 0
    assert main(["enrich", same, "-o", same]) == 0
    assert (tmp_path / "same.conllu").read_bytes() == (tmp_path / "other.conllu").read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.conllu", "other.conllu", "same.conllu"]


def test_an_output_that_is_not_a_regular_file_is_written_in_place(tmp_path):
    src = _write(tmp_path / "in.conllu", BLANKED)
    assert main(["enrich", src, "-o", os.devnull]) == 0
    assert os.path.exists(os.devnull) and not os.path.isfile(os.devnull)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.conllu"]


def test_a_replaced_output_gets_the_mode_of_a_new_file(tmp_path):
    src = _write(tmp_path / "in.conllu", BLANKED)
    out = tmp_path / "out.conllu"
    out.write_bytes(b"old output\n")
    out.chmod(0o600)
    umask = os.umask(0o022)
    os.umask(umask)
    assert main(["enrich", src, "-o", str(out)]) == 0
    assert out.stat().st_mode & 0o777 == 0o666 & ~umask


def test_a_temporary_file_left_by_a_killed_run_is_stepped_over(tmp_path, monkeypatch):
    src = _write(tmp_path / "in.conllu", BLANKED)
    bad = _write(tmp_path / "bad.conllu", BLANKED + "1\tmalformed\n")
    out = tmp_path / "out.conllu"
    with monkeypatch.context() as killed:  # a run that dies before it cleans up
        killed.setattr(os, "unlink", lambda path: None)
        assert main(["enrich", bad, "-o", str(out)]) == 2
    (stale,) = [p for p in tmp_path.iterdir() if p.name.startswith(".out.conllu.")]
    left = stale.read_bytes()
    # a later run of the same process id writes its output all the same
    assert main(["enrich", src, "-o", str(out)]) == 0
    assert main(["enrich", src, "-o", str(tmp_path / "other.conllu")]) == 0
    assert out.read_bytes() == (tmp_path / "other.conllu").read_bytes()
    assert stale.read_bytes() == left
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        ["bad.conllu", "in.conllu", "other.conllu", "out.conllu", stale.name]
    )


def test_correct_refuses_one_file_for_both_output_and_log(tmp_path, monkeypatch, capsys):
    src = _write(tmp_path / "in.conllu", FIG1_CONLLU)
    same = tmp_path / "same.tsv"
    same.write_bytes(b"old\n")
    monkeypatch.chdir(tmp_path)
    for output in (str(same), "same.tsv", "./same.tsv"):
        assert main(["correct", src, "-o", output, "--records", str(same)]) == 2
        assert capsys.readouterr().err == f"udmorph correct: -o and --records name the same file: {output}\n"
    assert same.read_bytes() == b"old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.conllu", "same.tsv"]
    # a file written in place, such as /dev/null, may take both
    assert main(["correct", src, "-o", os.devnull, "--records", os.devnull]) == 0
