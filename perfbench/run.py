"""termflow benchmark: end-to-end and per-layer metrics for three workloads.

Usage, from the repository root::

    python3 perfbench/run.py --workload wide_vocab --seed 1 --seconds 10 --trace 0

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``; ``--trace 1``
reports the per-layer metrics of a separate traced pass. The last line of
standard output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``; the line before it is the full report (environment, input
sizes, every sample, and ``error_rate`` = failed / attempted). Reports and
spans are also written under ``.perfbench_out/``. ``--tiny`` shrinks every
workload for the benchmark's own tests.

A run: set up the workload's inputs ``setup_repeats`` times (``setup_s`` is
the median), prepare oracles and fixtures outside any timed region, run one
untimed warm-up pass, then run whole passes until ``--seconds`` have passed.
Every reported time is scaled to a reference host speed by the probe in
``hostspeed.py``; the raw wall times are in the full report.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_run"
OUT = ROOT / ".perfbench_out"


def _environment(seed: int) -> dict:
    def version(dist: str):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(
                (l.split(":", 1)[1].strip() for l in handle if l.startswith("model name")), cpu
            )
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=30, check=True,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": commit,
        "seed": seed,
    }


def _timed_subprocess(argv: list[str]) -> tuple[float, tuple]:
    """Wall seconds of one child process, and the host speed probes around it."""
    import hostspeed

    env = dict(os.environ, PYTHONPATH=str(SRC))
    before = hostspeed.probe()
    start = perf_counter()
    subprocess.run(argv, env=env, check=True, timeout=120, stdout=subprocess.DEVNULL)
    seconds = perf_counter() - start
    return seconds, (before, hostspeed.probe())


def _setup(wl, work: Path, seed: int) -> tuple[list[tuple[float, tuple]], dict]:
    """Time importing termflow plus, for CLI workloads, ``termflow synth``."""
    import workloads

    if wl.kind == "trials":
        argv = [sys.executable, "-c", "import termflow"]
        return [_timed_subprocess(argv) for _ in range(wl.setup_repeats)], {}
    files = {name: str(work / name) for name in ("spec", "corpus", "truth", "annotations")}
    files.update({cmd: str(work / f"out.{cmd}") for cmd in workloads.CMD_NAMES})
    with open(files["spec"], "w", encoding="utf-8") as handle:
        json.dump(wl.scenario(seed), handle)
    argv = [sys.executable, "-m", "termflow", *wl.synth_argv(files, seed)]
    return [_timed_subprocess(argv) for _ in range(wl.setup_repeats)], files


def _median(values):
    return statistics.median(values) if values else None


def _scale(probes) -> float:
    """Factor from wall seconds to seconds at the reference host speed: the
    reference probe time over the mean of the given probe times."""
    import hostspeed

    return hostspeed.REFERENCE_S / statistics.mean(map(sum, probes))


def _pass_scale(ops) -> float:
    """The scale of one pass, from every probe taken between its ops."""
    return _scale([ops[0].probes[0], *(o.probes[1] for o in ops)])


def _prepare(wl, files: dict, seed: int):
    """Oracles, fixtures and input sizes: outside every timed region and setup_s.

    Returns the function that runs one pass, the name of each op's root span,
    and the input sizes.
    """
    import checks
    import sessions

    if wl.kind == "cli":
        oracle = checks.corpus_oracle(files["corpus"], files["truth"], wl.query)
        injected = set(checks.query_parts(wl.query)[0])
        checks.write_annotations(files["annotations"], oracle, injected)
        checker = checks.CliChecker(oracle, files, wl.labels[0], len(wl.labels))
        ops = wl.ops(files)
        inputs = {"docs": oracle.docs, "tokens": oracle.tokens,
                  "vocabulary": oracle.vocabulary, "jsonl_bytes": oracle.jsonl_bytes}
        return (lambda t, label: sessions.cli_pass(ops, checker, t, label)), "cli.main", inputs
    oracle = sessions.trial_oracle(wl.succession_docs_per_bin)
    seeds = wl.seeds(seed)
    inputs = sessions.trial_inputs(seeds[0], wl)
    return (lambda t, label: sessions.trials_pass(seeds, wl, oracle, t, label)), "trial", inputs


def _measure(one_pass, seconds: float, tracer):
    """Whole passes until ``seconds`` have passed; with a tracer, each untraced
    pass is followed by a traced one."""
    import tracing

    untraced, traced = [], []
    start = perf_counter()
    while True:
        untraced.append(one_pass(tracing.NullTracer(), f"pass{len(untraced)}"))
        if tracer is not None:
            tracer.tally = tracing.Tally()
            with tracing.instrumented(tracer):
                ops = one_pass(tracer, f"traced{len(traced)}")
            traced.append((ops, tracer.tally))
        if perf_counter() - start >= seconds:
            return untraced, traced


def _layer_metrics(wl, files: dict, seed: int, tracer, traced, root: str, session_s: float):
    """Per-layer metrics: the median over traced passes of each pass's figures."""
    import tracing
    import workloads
    from termflow import cli

    setup = tracing.Tally()
    if wl.kind == "cli":
        # Trace one in-process set-up too, so synth and the JSONL writer are covered.
        tracer.tally = setup
        with tracing.instrumented(tracer), tracer.op("setup", "cli.main"):
            code = cli.main(wl.synth_argv(files, seed))
        if code != 0:
            raise RuntimeError(f"traced synth exited with {code}")
    overhead = _median(
        [sum(o.seconds for o in ops) * _pass_scale(ops) for ops, _ in traced]
    ) / session_s - 1.0
    per_pass = []
    for _, tally in traced:
        tally.merge(setup)
        tracing.check_entered(tally, workloads.MUST_ENTER[wl.name],
                              workloads.MUST_NOT_ENTER[wl.name], wl.name)
        per_pass.append(tracing.layer_metrics(tally, root, overhead))
    return tracing.median_metrics(per_pass)


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """One run of a workload; returns the full report and the result line."""
    import tracing
    import workloads

    wl = workloads.build(workload, tiny)
    work = WORK / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tracer = tracing.Tracer() if trace else None
    phases = {}
    clock = perf_counter()

    def phase(name: str) -> None:
        nonlocal clock
        now = perf_counter()
        phases[name] = now - clock
        clock = now

    try:
        setup_times, files = _setup(wl, work, seed)
        phase("setup")
        one_pass, root, inputs = _prepare(wl, files, seed)
        phase("fixtures")
        one_pass(tracing.NullTracer(), "warmup")
        phase("warmup")
        untraced, traced = _measure(one_pass, seconds, tracer)
        phase("measure")

        wall = {"setup_s": [t for t, _ in setup_times],
                "session_s": [sum(o.seconds for o in p) for p in untraced]}
        probes = {"setup_s": [p for _, p in setup_times]}
        setup_scale = _scale([q for _, p in setup_times for q in p])
        scales = [_pass_scale(p) for p in untraced]
        samples = {"setup_s": [t * setup_scale for t in wall["setup_s"]],
                   "session_s": [t * k for t, k in zip(wall["session_s"], scales)]}
        for cmd in workloads.CMD_NAMES:
            key = f"cmd_{cmd}_s"
            ops = [(o, k) for p, k in zip(untraced, scales) for o in p if cmd in o.parts]
            wall[key] = [o.parts[cmd] for o, _ in ops]
            probes[key] = [o.probes for o, _ in ops]
            samples[key] = [o.parts[cmd] * k for o, k in ops]
        end_to_end = {k: _median(v) for k, v in samples.items()}
        end_to_end["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if trace:
            metrics = _layer_metrics(wl, files, seed, tracer, traced, root,
                                     end_to_end["session_s"])
            units = {name: unit for name, unit, _, _ in workloads.LAYER_METRICS}
        else:
            metrics = end_to_end
            units = {name: unit for name, unit, _ in workloads.END_TO_END}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    all_ops = [o for p in untraced for o in p] + [o for ops, _ in traced for o in ops]
    failed = [o for o in all_ops if o.error]
    report = {
        "workload": workload,
        "why": wl.why,
        "env": _environment(seed),
        "inputs": inputs,
        "phases_s": phases,
        "samples": samples,
        "wall_samples": wall,
        "wall_medians": {k: _median(v) for k, v in wall.items()},
        "probes": probes,
        "error_rate": len(failed) / len(all_ops),
        "errors": [f"{o.name}: {o.error}" for o in failed][:20],
        "metrics": {**end_to_end, **metrics},
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)
    if trace:
        with open(OUT / f"{stem}.spans.jsonl", "w", encoding="utf-8") as handle:
            for record in tracer.records():
                handle.write(json.dumps(record) + "\n")
    result = {
        "correct": not failed,
        "attempted": len(all_ops),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return {"report": report, "result": result}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for self-tests")
    args = parser.parse_args(argv)

    if not (SRC / "termflow" / "__init__.py").is_file():
        print(f"error: no termflow sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # The seed comes from --seed only: TERMFLOW_SEED would override it in synth.
    os.environ.pop("TERMFLOW_SEED", None)
    import termflow
    import workloads

    if Path(termflow.__file__).resolve().parent != (SRC / "termflow").resolve():
        print(f"error: imported termflow from {termflow.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.NAMES:
        parser.error(f"--workload must be one of {', '.join(workloads.NAMES)}")

    out = run(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    print(json.dumps(out["report"]))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
