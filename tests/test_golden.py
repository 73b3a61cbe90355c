"""Golden-output guard: `enrich`, `correct --aux --records` and `convert-it`
on a corpus of every feature-family fixture, one featureless conjunctive
ending (the only transcription) and FIG1, run through
`python -m udmorph`, must write exactly the bytes under `tests/golden/`.
The golden files also make a round trip: both treebanks pass `validate`,
and the records' output blocks, read back as predictions, score full
marks against `corrected.conllu`.

`tests/fixtures/rule_coverage.conllu` holds one sentence for each shipped
rule that this corpus does not fire; `enrich` must write exactly
`tests/golden/rule_coverage.enriched.conllu` from it, and every rule of the
packaged pack must fire on the two corpora.

Regenerate the files with `PYTHONPATH=src python tests/test_golden.py` only
when an output change is intended, and review the diff."""

import json
import os
import subprocess
import sys
import zipfile
from pathlib import Path

import pytest

import udmorph
from conftest import FAMILY_FIXTURES, FIG1_CONLLU, make_sentence
from udmorph.conllu import parse_conllu, serialize_conllu
from udmorph.rules import _context_matches, load_rule_pack

GOLDEN = Path(__file__).parent / "golden"
COVERAGE = Path(__file__).parent / "fixtures" / "rule_coverage.conllu"

# family-03 is Case=Abl (학교에서, NNG+JKB), family-25 is Mood=Opt
# (행복하길, VA+ETN+JKO), fixture-1 token 1 is 학교 (NNG).
AUX = (
    "family-03\t1\tLOC\t_\n"  # NNG with a NER label: ner-propn
    "family-25\t1\t_\tVA\n"  # one external tag for three morphemes: ext-xpos collapse
    "fixture-1\t1\t_\tNNP\n"  # ext-xpos to NNP, then no NER label: ner-common
)
# No rule fires on 다가, so enrich transcribes it as Case=daga.
TRANSCRIBED = [("가다가", "가+다가", "VV+EC", "VERB"), ("넘어졌다", "넘어지+었+다", "VV+EP+EF", "VERB")]
OUTPUTS = ("enriched.conllu", "corrected.conllu", "corrections.tsv", "it.jsonl")


def corpus() -> str:
    sentences = [
        make_sentence(words, sent_id=f"family-{i:02d}")
        for i, (_, words, *_) in enumerate(FAMILY_FIXTURES)
    ]
    sentences.append(make_sentence(TRANSCRIBED, sent_id="transcribed"))
    return serialize_conllu(sentences) + FIG1_CONLLU


def udmorph_cli(args: list[str], workdir: Path) -> subprocess.CompletedProcess:
    """`python -m udmorph *args` in `workdir`, run from this checkout."""
    env = dict(os.environ)
    package_root = str(Path(udmorph.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "udmorph", *args],
        cwd=workdir,
        env=env,
        capture_output=True,
        text=True,
    )


def run_stages(workdir: Path) -> dict[str, bytes]:
    """Run the three stages in `workdir`; returns each output's bytes."""
    (workdir / "corpus.conllu").write_text(corpus(), encoding="utf-8")
    (workdir / "aux.tsv").write_text(AUX, encoding="utf-8")
    for args in (
        ["enrich", "corpus.conllu", "-o", "enriched.conllu"],
        ["correct", "enriched.conllu", "--aux", "aux.tsv", "--records", "corrections.tsv",
         "-o", "corrected.conllu"],
        ["convert-it", "corrected.conllu", "-o", "it.jsonl"],
    ):
        result = udmorph_cli(args, workdir)
        assert result.returncode == 0, f"udmorph {args[0]} exited {result.returncode}: {result.stderr}"
    return {name: (workdir / name).read_bytes() for name in OUTPUTS}


def test_outputs_match_golden_bytes(tmp_path):
    outputs = run_stages(tmp_path)
    log = outputs["corrections.tsv"].decode("utf-8").splitlines()
    fired = {line.split("\t")[-1] for line in log if not line.startswith("#")}
    assert {"ext-xpos", "ner-propn", "ner-common"} <= fired
    for name, data in outputs.items():
        assert data == (GOLDEN / name).read_bytes(), f"{name} differs from tests/golden/{name}"


def test_the_packaged_pack_loads_from_a_zip(tmp_path):
    package = Path(udmorph.__file__).resolve().parent
    archive = tmp_path / "udmorph.zip"
    with zipfile.ZipFile(archive, "w") as zipped:
        for path in sorted(package.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                zipped.write(path, Path("udmorph", path.relative_to(package)).as_posix())
    (tmp_path / "corpus.conllu").write_text(corpus(), encoding="utf-8")
    # -S and the zip alone on the path: no other copy of udmorph can be imported
    result = subprocess.run(
        [sys.executable, "-S", "-m", "udmorph", "enrich", "corpus.conllu", "-o", "enriched.conllu"],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(archive)},
        capture_output=True,
        text=True,
    )
    assert (result.returncode, result.stderr) == (0, "")
    assert (tmp_path / "enriched.conllu").read_bytes() == (GOLDEN / "enriched.conllu").read_bytes()


@pytest.mark.parametrize(
    "name", ["enriched.conllu", "corrected.conllu", "rule_coverage.enriched.conllu"]
)
def test_golden_treebanks_validate_clean(name):
    result = udmorph_cli(["validate", str(GOLDEN / name)], GOLDEN)
    assert (result.returncode, result.stderr) == (0, "")


def test_golden_records_output_blocks_score_full_marks_against_their_gold(tmp_path):
    with open(GOLDEN / "it.jsonl", encoding="utf-8") as records:
        blocks = [json.loads(line)["output"] for line in records]
    predictions = tmp_path / "predictions.txt"
    predictions.write_text("\n".join(blocks), encoding="utf-8")
    result = udmorph_cli(["eval", str(GOLDEN / "corrected.conllu"), str(predictions)], tmp_path)
    assert (result.returncode, result.stderr) == (0, "")
    report = dict(line.split("\t") for line in result.stdout.splitlines() if "\t" in line)
    assert (report["uas"], report["las"]) == ("100.00", "100.00")
    assert (report["unmatched"], report["missing"]) == ("0", "0")
    gold = parse_conllu((GOLDEN / "corrected.conllu").read_text(encoding="utf-8"))
    assert int(report["total"]) == sum(len(sentence.tokens) for sentence in gold)


def enrich_coverage(workdir: Path) -> bytes:
    """The bytes `enrich` writes for the rule-coverage fixture."""
    result = udmorph_cli(["enrich", str(COVERAGE), "-o", "enriched.conllu"], workdir)
    assert result.returncode == 0, f"udmorph enrich exited {result.returncode}: {result.stderr}"
    return (workdir / "enriched.conllu").read_bytes()


def test_the_rule_coverage_fixture_enriches_to_its_golden_bytes(tmp_path):
    expected = (GOLDEN / "rule_coverage.enriched.conllu").read_bytes()
    assert enrich_coverage(tmp_path) == expected


def fired_rule_ids(sentences, pack) -> set[str]:
    """The ids of the rules whose emissions reach a word's bag, resolved as
    `enrich_sentence` resolves them: the word-internal winners, and each
    lookahead rule that wins a feature key on the first morphemes of the
    next two words."""
    fired = set()
    for sentence in sentences:
        verdicts = [pack.verdict(token.morphemes) for token in sentence.tokens]
        for i, verdict in enumerate(verdicts):
            fired.update(rule.id for _, rule in verdict.winners)
            window = [v.first for v in verdicts[i + 1 : i + 3] if v.first is not None]
            context = {}
            for rule in verdict.lookahead:
                if _context_matches(rule, window):
                    for key, _ in rule.emits:
                        context.setdefault(key, rule)
            fired.update(rule.id for rule in context.values())
    return fired


def unfired_rule_ids(pack) -> list[str]:
    """The ids of `pack`'s rules that fire on neither the golden corpus nor
    the rule-coverage fixture."""
    sentences = parse_conllu(corpus()) + parse_conllu(COVERAGE.read_text(encoding="utf-8"))
    return sorted({rule.id for rule in pack.rules} - fired_rule_ids(sentences, pack))


def test_every_shipped_rule_fires_on_the_golden_or_coverage_corpus(pack):
    unfired = unfired_rule_ids(pack)
    assert not unfired, f"rules that fire on no fixture sentence: {', '.join(unfired)}"


def test_a_rule_that_fires_on_no_fixture_is_named():
    shipped = (Path(udmorph.__file__).parent / "data" / "ko.rules").read_text(encoding="utf-8")
    pack = load_rule_pack(shipped + "rule never-fires 10 tag=SW surface=※ => Case=Nom\n")
    assert unfired_rule_ids(pack) == ["never-fires"]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as workdir:
        GOLDEN.mkdir(exist_ok=True)
        outputs = run_stages(Path(workdir))
        outputs["rule_coverage.enriched.conllu"] = enrich_coverage(Path(workdir))
        for name, data in outputs.items():
            (GOLDEN / name).write_bytes(data)
            print(f"wrote {GOLDEN / name} ({len(data)} bytes)")
