"""udmorph benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 10 --trace 0

The program under test is the CLI in `src/`, started as
`python -m udmorph.cli` with `PYTHONPATH=src`, exactly as a user without the
installed entry point would run it.  Inputs are generated from `--seed` (see
`corpus.py`) into `.bench_work/`; results and span dumps go to
`.bench_results/`.  Both sit at the root of the checkout.

With `--trace 0` the run times untraced CLI processes and reports the
end-to-end metrics.  With `--trace 1` it reports the per-layer metrics: CLI
wall and CPU time per command from untraced processes, then alternating
untraced and traced in-process runs of `udmorph.cli.main` for the rest.
Times are divided by the host's measured slowdown while each command or
pass ran (see cpuspeed.py).
Every run checks the outputs; the last line of stdout is one JSON object.
See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(ROOT))

from perfbench import checks, corpus, cpuspeed  # noqa: E402

WORKLOADS = ("pipeline", "parallel", "eval", "long")
CLI_COMMANDS = ("validate", "enrich", "correct", "convert-it", "eval")
SETUP_REPS = 7
MIN_ITERATIONS = 3
COMMAND_TIMEOUT_S = 60.0
CLI_SHARE_OF_TRACE_RUN = 0.4


@dataclass(frozen=True)
class Command:
    name: str
    args: tuple[str, ...]
    outputs: tuple[Path, ...] = ()


@dataclass
class Invocation:
    command: Command
    wall_s: float
    cpu_s: float
    rss_kb: int
    returncode: int
    stderr: str
    start: float
    end: float


@dataclass
class Tally:
    """Command invocations attempted and failed, with the first few reasons."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def add(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.extend(f"{label}: {p}" for p in problems[:3])


def write_inputs(directory: Path, inputs: corpus.WorkloadInputs) -> dict[str, Path]:
    directory.mkdir(parents=True, exist_ok=True)
    files = {"corpus": directory / "corpus.conllu"}
    files["corpus"].write_text(inputs.corpus, encoding="utf-8")
    if inputs.aux is not None:
        files["aux"] = directory / "aux.tsv"
        files["aux"].write_text(inputs.aux, encoding="utf-8")
    if inputs.predictions is not None:
        files["predictions"] = directory / "predictions.txt"
        files["predictions"].write_text(inputs.predictions, encoding="utf-8")
    return files


def plan(workload: str, files: dict[str, Path], out: Path, jobs: int | None) -> list[Command]:
    """The workload's commands, reading `files` and writing under `out`."""
    source = str(files["corpus"])
    if workload == "eval":
        report = out / "eval.txt"
        return [
            Command("validate", (source,)),
            Command("eval", (source, str(files["predictions"]), "-o", str(report)), (report,)),
        ]
    enriched, corrected = out / "enriched.conllu", out / "corrected.conllu"
    log, jsonl = out / "corrections.tsv", out / "records.jsonl"
    pool = ("--jobs", str(jobs)) if jobs else ()
    commands = [Command("validate", (source,))] if workload == "long" else []
    commands += [
        Command("enrich", (source, "-o", str(enriched)) + pool, (enriched,)),
        Command(
            "correct",
            (str(enriched), "--aux", str(files["aux"]), "--records", str(log), "-o", str(corrected)),
            (corrected, log),
        ),
        Command("convert-it", (str(corrected), "-o", str(jsonl)) + pool, (jsonl,)),
    ]
    return commands


def cli_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


class Spawner:
    """Client of `spawner.py`, which starts each CLI command and measures it."""

    def __init__(self, env: dict[str, str], cpus: list[int]):
        self.cpus = cpus
        self.process = subprocess.Popen(
            [sys.executable, "-S", str(Path(__file__).with_name("spawner.py")), ",".join(map(str, cpus))],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            env=env,
            cwd=ROOT,
        )

    def run(self, argv: list[str], cwd: Path, stderr: Path) -> dict:
        request = {"argv": argv, "cwd": str(cwd), "stderr": str(stderr), "timeout": COMMAND_TIMEOUT_S}
        self.process.stdin.write(json.dumps(request) + "\n")
        self.process.stdin.flush()
        reply = self.process.stdout.readline()
        if not reply:
            raise RuntimeError("the spawner process exited")
        return json.loads(reply)

    def close(self) -> None:
        self.process.stdin.close()
        try:
            self.process.wait(timeout=COMMAND_TIMEOUT_S + 10)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self.process.stdout.close()


def invoke(command: Command, spawner: Spawner, workdir: Path) -> Invocation:
    """Run one CLI command; its rusage includes the pool workers it reaped."""
    argv = [sys.executable, "-m", "udmorph.cli", command.name, *command.args]
    workdir.mkdir(parents=True, exist_ok=True)
    for path in command.outputs:
        path.parent.mkdir(parents=True, exist_ok=True)
    stderr_path = workdir / "stderr.txt"
    reply = spawner.run(argv, workdir, stderr_path)
    return Invocation(
        command,
        reply["wall_s"],
        reply["cpu_s"],
        reply["rss_kb"],
        reply["returncode"],
        stderr_path.read_text(encoding="utf-8", errors="replace"),
        reply["start"],
        reply["end"],
    )


def digest(path: Path) -> str | None:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except OSError:
        return None


def _read(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as error:
        return f"<unreadable: {error}>"


def exit_problems(command: Command, rc: int, stderr: str) -> list[str]:
    """A non-zero exit, or diagnostics from `validate` on the generated gold."""
    if rc != 0:
        return [f"exit code {rc}: {stderr.strip()[-300:]}"]
    if command.name == "validate" and stderr.strip():
        return [f"diagnostics on stderr: {stderr.strip()[:300]}"]
    return []


def check_command(command: Command, inputs: corpus.WorkloadInputs, out: Path, rc: int, stderr: str) -> list[str]:
    """Full check of one command's output against what the inputs require."""
    problems = exit_problems(command, rc, stderr)
    if problems or command.name == "validate":
        return problems
    if command.name == "enrich":
        return checks.conllu_output(_read(out / "enriched.conllu"), inputs.sentences, inputs.tokens)
    if command.name == "correct":
        corrected = _read(out / "corrected.conllu")
        return checks.conllu_output(corrected, inputs.sentences, inputs.tokens) + checks.replay(
            _read(out / "enriched.conllu"), corrected, _read(out / "corrections.tsv"), inputs.tokens
        )
    if command.name == "convert-it":
        return checks.jsonl_records(_read(out / "records.jsonl"), _read(out / "corrected.conllu"))
    if command.name == "eval":
        return checks.eval_report(_read(out / "eval.txt"), inputs.oracle)
    return [f"no check for command {command.name!r}"]


class Runner:
    """Runs a workload's command sequence repeatedly and checks every output.

    The first pass's outputs are checked in full and their digests kept as
    the reference; each later pass must reproduce those bytes (the program
    promises byte-deterministic output)."""

    def __init__(self, workload, inputs, files, out_root: Path, jobs, spawner: Spawner, tally: Tally):
        self.workload = workload
        self.inputs = inputs
        self.files = files
        self.out_root = out_root
        self.jobs = jobs
        self.spawner = spawner
        self.tally = tally
        self.reference: dict[str, str | None] | None = None
        self.passes = 0

    def run_pass(self) -> list[Invocation]:
        self.passes += 1
        out = self.out_root / f"pass{self.passes}"
        commands = plan(self.workload, self.files, out, self.jobs)
        invocations = [invoke(c, self.spawner, self.out_root) for c in commands]
        self.verify(out, [(i.command, i.returncode, i.stderr) for i in invocations], "cli")
        shutil.rmtree(out, ignore_errors=True)
        return invocations

    def verify(self, out: Path, results, label: str) -> None:
        """Check outputs of one pass: in full the first time, by digest after."""
        digests = {p.name: digest(p) for c, _, _ in results for p in c.outputs}
        if self.reference is None:
            self.reference = digests
            for command, rc, stderr in results:
                problems = check_command(command, self.inputs, out, rc, stderr)
                self.tally.add(f"{label} {command.name}", problems)
            return
        for command, rc, stderr in results:
            problems = exit_problems(command, rc, stderr)
            for path in command.outputs:
                if digests[path.name] != self.reference[path.name]:
                    problems.append(f"{path.name} differs from the first pass's bytes")
            self.tally.add(f"{label} {command.name}", problems)


def detect_jobs(env: dict[str, str], workdir: Path) -> int | None:
    """min(2, usable CPUs) if both enrich and convert-it still accept --jobs.

    Later versions may delete the flag; then `parallel` runs the same
    commands serially and shows the speed users would get."""
    for command in ("enrich", "convert-it"):
        result = subprocess.run(
            [sys.executable, "-m", "udmorph.cli", command, "--help"],
            stdin=subprocess.DEVNULL,
            capture_output=True,
            text=True,
            env=env,
            cwd=workdir,
            timeout=COMMAND_TIMEOUT_S,
        )
        if result.returncode != 0:
            raise RuntimeError(f"udmorph {command} --help failed: {result.stderr.strip()}")
        if "--jobs" not in result.stdout:
            return None
    return min(2, len(os.sched_getaffinity(0)))


def _median(values):
    return statistics.median(values) if values else 0.0


def sequence_s(passes: list[list[Invocation]], seconds) -> float:
    """Time of one pass of the command sequence: per command, the median of
    `seconds(invocation)` over the passes, summed over the commands."""
    return sum(statistics.median(seconds(p[k]) for p in passes) for k in range(len(passes[0])))


def quiet_seconds(speed: cpuspeed.Speed, cpus: list[int]):
    """An invocation's wall time with the host's slow spells divided out."""
    return lambda i: i.wall_s / speed.factor(cpus, i.start, i.end)


def end_to_end(workload, inputs, one, files_full, files_one, work, jobs, spawner, probes, seconds, tally):
    """Set-up time on one sentence, then throughput passes for `seconds`."""
    setup = Runner(workload, one, files_one, work / "setup", jobs, spawner, tally)
    setup_passes = [setup.run_pass() for _ in range(SETUP_REPS)]

    runner = Runner(workload, inputs, files_full, work / "full", jobs, spawner, tally)
    passes = []
    deadline = time.perf_counter() + seconds
    while True:
        started = time.perf_counter()
        passes.append(runner.run_pass())
        took = time.perf_counter() - started
        if len(passes) >= MIN_ITERATIONS and time.perf_counter() + took > deadline:
            break
    speed = probes.stop()
    quiet = quiet_seconds(speed, spawner.cpus)
    peak_kb = max(i.rss_kb for p in passes for i in p)
    metrics = {
        "tokens_per_s": {"value": inputs.tokens / sequence_s(passes, quiet), "unit": "tokens/s"},
        "setup_s": {"value": sequence_s(setup_passes, quiet), "unit": "s"},
        "peak_rss_mb": {"value": peak_kb / 1024, "unit": "MB"},
    }
    samples = {
        name: [
            [
                {"command": i.command.name, "wall_s": i.wall_s, "quiet_s": quiet(i), "cpu_s": i.cpu_s,
                 "rss_kb": i.rss_kb}
                for i in p
            ]
            for p in group
        ]
        for name, group in (("setup", setup_passes), ("passes", passes))
    }
    samples["cpu_speed"] = speed.summary()
    return metrics, samples, runner


def _per_token_us(spans, name, own=None) -> float:
    selected = [i for i, s in enumerate(spans) if s.name == name]
    tokens = sum(spans[i].tokens for i in selected)
    if not tokens:
        return 0.0
    total = sum(own[i] if own is not None else spans[i].duration_ns for i in selected)
    return total / tokens / 1000


def _total_ms(spans, name) -> float:
    return sum(s.duration_ns for s in spans if s.name == name) / 1e6


def _ms_per_call(spans) -> float:
    return sum(s.duration_ns for s in spans) / len(spans) / 1e6 if spans else 0.0


def layer_metrics(tracer) -> dict[str, float]:
    """Per-layer figures of one traced pass."""
    spans = tracer.spans
    own = tracer.self_ns()
    counts = tracer.counts
    pack_loads = [
        s for s in spans
        if s.name in ("load_default_pack", "load_rule_pack")
        and (s.parent < 0 or spans[s.parent].name not in ("load_default_pack", "load_rule_pack"))
    ]
    return {
        "conllu.parse.us_per_token": _per_token_us(spans, "iter_sentences"),
        "conllu.serialize.us_per_token": _per_token_us(spans, "write_conllu"),
        "conllu.validate.us_per_token": _per_token_us(spans, "validate"),
        "rules.load_pack.ms": _ms_per_call(pack_loads),
        "rules.assign_features.us_per_token": _per_token_us(spans, "assign_features"),
        "rules.enrich.self_us_per_token": _per_token_us(spans, "enrich_sentence", own),
        "corrections.correct.us_per_token": _per_token_us(spans, "correct_sentence"),
        "corrections.read_aux.ms": _ms_per_call([s for s in spans if s.name == "read_aux_sidecar"]),
        "corrections.write_records.ms": _ms_per_call([s for s in spans if s.name == "write_records"]),
        "itdata.to_it_record.us_per_token": _per_token_us(spans, "to_it_record"),
        "itdata.emit_jsonl.us_per_token": _per_token_us(spans, "emit_jsonl"),
        "itdata.read_predictions.us_per_token": (
            _total_ms(spans, "read_prediction_blocks") * 1000 / counts.rows_parsed
            if counts.rows_parsed
            else 0.0
        ),
        "evaluate.score.us_per_token": _per_token_us(spans, "score"),
        "conllu.validate.diagnostics": counts.diagnostics,
        "rules.feats_per_token": (
            counts.feature_values / counts.enriched_tokens if counts.enriched_tokens else 0.0
        ),
        "rules.transcriptions": counts.transcriptions,
        "rules.functional_flags": counts.functional_flags,
        "corrections.records": counts.records,
        "itdata.rows_parsed": counts.rows_parsed,
        "evaluate.unmatched_rows": counts.unmatched_rows,
        "evaluate.missing_rows": counts.missing_rows,
    }


LAYER_UNITS = {
    ".ms": "ms/call",
    "us_per_token": "us/token",
    "feats_per_token": "values/token",
}


def _layer_unit(name: str) -> str:
    for suffix, unit in LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def traced(workload, files, work, runner, deadline, results_dir, seed, probes, cpus):
    """Alternate untraced and traced in-process passes of `udmorph.cli.main`.

    The traced run is always serial: wrappers cannot be pickled into pool
    workers, and the pool's own cost already shows in cli.<command>.cpu_s.
    It runs on the probed CPUs, and each pass's times are corrected like
    the CLI's (see cpuspeed.py)."""
    from udmorph import cli

    from perfbench.tracing import Tracer

    plain, traced_passes = [], []  # (start, end[, layer metrics]) per pass
    tracer = None
    passes = 0
    affinity = os.sched_getaffinity(0)
    os.sched_setaffinity(0, cpus)
    while passes < 2 or time.perf_counter() < deadline:
        passes += 1
        for traced_pass in (False, True):
            out = work / f"inproc{passes}{'t' if traced_pass else 'u'}"
            commands = plan(workload, files, out, None)
            for command in commands:
                for path in command.outputs:
                    path.parent.mkdir(parents=True, exist_ok=True)
            tracer = Tracer() if traced_pass else None
            results = []
            start = time.perf_counter()
            for command in commands:
                if tracer is not None:
                    tracer.start_command(command.name)
                    with tracer.installed():
                        rc, stderr = _main_in_process(cli, command)
                else:
                    rc, stderr = _main_in_process(cli, command)
                results.append((command, rc, stderr))
            end = time.perf_counter()
            runner.verify(out, results, "traced" if traced_pass else "in-process")
            shutil.rmtree(out, ignore_errors=True)
            if traced_pass:
                traced_passes.append((start, end, layer_metrics(tracer)))
            else:
                plain.append((start, end))
    os.sched_setaffinity(0, affinity)
    speed = probes.stop()
    tracer.write(results_dir / f"spans-{workload}-seed{seed}.jsonl.gz")

    def quiet(start, end):
        return (end - start) / speed.factor(cpus, start, end)

    # times vary from pass to pass; counts are the same in every pass
    per_pass = []
    for start, end, figures in traced_passes:
        factor = speed.factor(cpus, start, end)
        per_pass.append({
            name: value if _layer_unit(name) in ("count", "values/token") else value / factor
            for name, value in figures.items()
        })
    metrics = {
        name: (
            per_pass[-1][name]
            if _layer_unit(name) in ("count", "values/token")
            else statistics.median(p[name] for p in per_pass)
        )
        for name in per_pass[0]
    }
    metrics["trace.overhead_ratio"] = _median([quiet(a, b) for a, b, _ in traced_passes]) / _median(
        [quiet(a, b) for a, b in plain]
    )
    return metrics


def _main_in_process(cli, command: Command) -> tuple[int, str]:
    try:
        return cli.main([command.name, *command.args]), ""
    except SystemExit as exit_:
        return (exit_.code if isinstance(exit_.code, int) else 2), "argument error"
    except Exception:  # a crash in the program under test is a failed invocation
        return 2, traceback.format_exc()


def per_layer(workload, inputs, files_full, work, jobs, spawner, probes, seconds, tally, results_dir, seed):
    """CLI wall/CPU per command from untraced processes, then the traced run."""
    deadline = time.perf_counter() + seconds
    runner = Runner(workload, inputs, files_full, work / "full", jobs, spawner, tally)
    passes = []
    cli_deadline = time.perf_counter() + seconds * CLI_SHARE_OF_TRACE_RUN
    while not passes or time.perf_counter() < cli_deadline:
        passes.append(runner.run_pass())
    metrics = traced(workload, files_full, work, runner, deadline, results_dir, seed, probes, spawner.cpus)
    speed = probes.stop()
    for name in CLI_COMMANDS:
        runs = [i for p in passes for i in p if i.command.name == name]
        factors = [speed.factor(spawner.cpus, i.start, i.end) for i in runs]
        metrics[f"cli.{name}.wall_s"] = _median([i.wall_s / f for i, f in zip(runs, factors)])
        metrics[f"cli.{name}.cpu_s"] = _median([i.cpu_s / f for i, f in zip(runs, factors)])
    metrics["conllu.tokens"] = inputs.tokens
    metrics["conllu.sentences"] = inputs.sentences
    units = {name: ("s/run" if name.startswith("cli.") else _layer_unit(name)) for name in metrics}
    units["trace.overhead_ratio"] = "ratio"
    return {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}, runner


def commit_id() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: ") :]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0, help="corpus size multiplier")
    parser.add_argument(
        "--results", default=str(ROOT / ".bench_results"), help="directory for results and spans"
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "udmorph" / "cli.py").is_file():
        print(f"perfbench: no udmorph sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    results_dir = Path(args.results)
    results_dir.mkdir(parents=True, exist_ok=True)
    work = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    env = cli_env()
    tally = Tally()
    # `parallel` may use every CPU; the other workloads run on one, which the
    # probe watches (see cpuspeed.py).
    usable = sorted(os.sched_getaffinity(0))
    cpus = usable if args.workload == "parallel" else usable[-1:]
    spawner = Spawner(env, cpus)
    probes = cpuspeed.Probes(cpus)
    try:
        inputs, one = corpus.generate(args.workload, args.seed, args.scale)
        files_full = write_inputs(work / "inputs", inputs)
        files_one = write_inputs(work / "inputs-one", one)
        # also compiles the package's bytecode before anything is timed
        jobs = detect_jobs(env, work)
        if args.workload != "parallel":
            jobs = None
        if args.trace:
            metrics, runner = per_layer(
                args.workload, inputs, files_full, work, jobs, spawner, probes,
                args.seconds, tally, results_dir, args.seed,
            )
            samples = None
        else:
            metrics, samples, runner = end_to_end(
                args.workload, inputs, one, files_full, files_one, work, jobs, spawner, probes,
                args.seconds, tally,
            )
        digests = {f"inputs/{p.name}": digest(p) for p in files_full.values()}
        digests.update({f"outputs/{k}": v for k, v in runner.reference.items()})
    finally:
        probes.stop()
        spawner.close()
        shutil.rmtree(work, ignore_errors=True)

    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "commit": commit_id(),
        "jobs": jobs,
        "tokens": inputs.tokens,
        "sentences": inputs.sentences,
        "sha256": digests,
        "problems": tally.problems,
        "samples": samples,
        **result,
    }
    path = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")

    print(f"workload {args.workload}  seed {args.seed}  tokens {inputs.tokens}  "
          f"sentences {inputs.sentences}  jobs {jobs}  commit {record['commit'][:12]}")
    for name, metric in metrics.items():
        print(f"  {name:40s} {metric['value']:14.4f} {metric['unit']}")
    print(f"  {'error_rate':40s} {tally.failed / tally.attempted:14.4f} ratio "
          f"({tally.failed} failed of {tally.attempted} invocations)")
    for problem in tally.problems:
        print(f"  problem: {problem}")
    print(f"  results: {path}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
