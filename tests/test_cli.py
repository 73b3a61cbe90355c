import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import udmorph
from conftest import FIG1_CONLLU, FIG1_FEATS
from udmorph.cli import main


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


def test_correct_warns_about_aux_entries_matching_no_sentence(tmp_path, capsys):
    src = _write(tmp_path / "in.conllu", FIG1_CONLLU.replace("fixture-1", "s1"))
    aux = _write(tmp_path / "aux.tsv", "s1\t1\tPER\t_\ns9\t1\tPER\t_\ns8\t2\t_\t_\n")
    log = tmp_path / "records.tsv"
    argv = ["correct", src, "--aux", aux, "-o", str(tmp_path / "out"), "--records", str(log)]
    assert main(argv) == 0
    warnings = capsys.readouterr().err
    assert warnings == "WARNING: 2 aux entries match no sentence (first sent_id 's9')\n"
    assert "s1\t1\t" in log.read_text(encoding="utf-8")


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


def test_rules_env_var_sets_default_pack(tmp_path, monkeypatch):
    custom = (
        "#unidive-rules v1\n"
        "language ko\n"
        "rule only 10 tag=NNG => Number=Plur\n"
    )
    pack_path = _write(tmp_path / "tiny.rules", custom)
    src = _write(tmp_path / "in.conllu", "1\t학교\t학교\tNOUN\tNNG\t_\t0\troot\t_\t_\n\n")
    out = tmp_path / "out.conllu"
    monkeypatch.setenv("UDMORPH_RULES", pack_path)
    assert main(["enrich", src, "-o", str(out)]) == 0
    assert "Number=Plur" in out.read_text(encoding="utf-8")


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
    udmorph.cli.main(sys.argv[1:])
print(" ".join(sorted(m for m in sys.modules if m.startswith("udmorph."))))
costly = ("decimal", "dataclasses", "importlib.resources", "inspect", "json", "logging")
print(" ".join(m for m in costly if m in sys.modules))
"""


@pytest.mark.parametrize(
    "argv,modules,stdlib",
    [
        ([], "", ""),
        (["validate", "in.conllu"], "cli conllu", ""),
        (["convert-it", "in.conllu", "-o", "out"], "cli conllu itdata", "json"),
        (["eval", "in.conllu", "pred.txt", "-o", "out"], "cli conllu evaluate itdata", ""),
        (["enrich", "in.conllu", "-o", "out"], "cli conllu romanize rules", ""),
        (["stats", "log.tsv", "-o", "out"], "cli conllu corrections", ""),
        (
            ["correct", "in.conllu", "--aux", "aux.tsv", "--records", "log.out", "-o", "out"],
            "cli conllu corrections romanize rules",
            "",
        ),
    ],
    ids=["import", "validate", "convert-it", "eval", "enrich", "stats", "correct"],
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
    loaded, loaded_stdlib = result.stdout.split("\n")[:2]
    assert loaded.split() == [f"udmorph.{name}" for name in modules.split()]
    assert loaded_stdlib == stdlib


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
        "assign_features",
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
