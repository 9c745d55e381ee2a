"""Run every subcommand over a fixed option matrix and keep what each run wrote.

Usage, from any directory::

    python3 tests/equivalence.py OUTDIR [--seed N] [--tiny]

Each case runs ``python3 -m termflow`` as its own process, with
``PYTHONPATH`` set to this checkout's ``src`` and its own working
directory ``OUTDIR/<corpus>/<case>/``, so the paths recorded in each
artifact's config are relative. That directory keeps the case's artifacts
and its ``_stdout``, ``_stderr`` and ``_exit`` code. The corpora are the
golden scenario (``tests/golden/``) and perfbench's ``wide_vocab`` and
``many_docs`` workloads at ``--seed`` (``--tiny`` shrinks the two
workloads), each generated by the checkout's own ``synth`` case; the
shared inputs derived from it are kept under ``OUTDIR/<corpus>/inputs/``.

To check that a change leaves every artifact byte-identical, run this
script in a copy of the parent commit and in the change, and compare the
two trees with ``diff -r``. The script is not a test: pytest does not
collect it.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
sys.path.insert(0, str(ROOT / "perfbench"))
sys.dont_write_bytecode = True  # leave perfbench's directory as it is

import checks  # noqa: E402  (perfbench's oracle and annotation writer)
import workloads  # noqa: E402  (perfbench's scenarios)

RECORD_FIELDS = ("id", "discipline", "year", "title", "abstract")
# the cases that must exit 1
FAILING = ("repeated_id", "repeated_ids", "unknown_discipline", "trend_bad_term_repeated")
# the options whose value names an input file
READS = ("--corpus", "--spec", "--annotations", "--dictionary")


def run_case(case_dir: Path, inputs: Path, argv: list[str], env: dict | None = None) -> int:
    """Run ``termflow *argv`` in ``case_dir`` with links to the inputs it reads,
    and keep its stdout, stderr and exit code beside its artifacts."""
    case_dir.mkdir(parents=True)
    # the file after each reading option, or the PATH of a DISC=PATH value
    linked = {b.rsplit("=", 1)[-1] for a, b in zip(argv, argv[1:]) if a in READS}
    for name in linked:
        (case_dir / name).symlink_to(inputs / name)
    child_env = {k: v for k, v in os.environ.items() if k != "TERMFLOW_SEED"}
    child_env.update(env or {}, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-m", "termflow", *argv], cwd=case_dir,
                          env=child_env, capture_output=True, timeout=600)
    for name in linked:
        (case_dir / name).unlink()
    (case_dir / "_stdout").write_bytes(done.stdout)
    (case_dir / "_stderr").write_bytes(done.stderr)
    (case_dir / "_exit").write_text(f"{done.returncode}\n")
    return done.returncode


def write_inputs(inputs: Path, synth_dir: Path, query: str, target: str,
                 annotations: Path | None) -> None:
    """The corpus in JSONL and CSV, a corpus that repeats an id, one that
    repeats two ids whose year cells sort in the opposite order to their
    lines, a corpus whose titles hold ingest's separator tokens, the
    annotations and a dictionary, all derived from the synth case's output."""
    shutil.copyfile(synth_dir / "corpus.jsonl", inputs / "corpus.jsonl")
    lines = (inputs / "corpus.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
    with open(inputs / "corpus.csv", "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(RECORD_FIELDS)
        for line in lines:
            record = json.loads(line)
            writer.writerow([record[f] for f in RECORD_FIELDS])
    (inputs / "repeated.jsonl").write_text("".join(lines + lines[:1]), encoding="utf-8")
    records = [json.loads(line) for line in lines]
    # line 1 and the first later line whose (discipline, year) cell sorts before
    # line 1's, each repeated: a DuplicateId names the later line's id
    cell = [(r["discipline"], r["year"]) for r in records]
    later = next(i for i, c in enumerate(cell) if c < cell[0])
    (inputs / "repeated_ids.jsonl").write_text(
        "".join(lines + [lines[0], lines[later]]), encoding="utf-8"
    )
    # the first separator ingest tries in three titles, and the second in one of them
    for i in (0, len(records) // 3, 2 * len(records) // 3):
        records[i]["title"] += " termflowdocsep0" + (" termflowdocsep1" if i == 0 else "")
    (inputs / "separator.jsonl").write_text(
        "".join(json.dumps(r, sort_keys=True) + "\n" for r in records), encoding="utf-8"
    )
    oracle = checks.corpus_oracle(str(inputs / "corpus.jsonl"), str(synth_dir / "truth.json"),
                                  query)
    if annotations is None:
        injected = set(checks.query_parts(query)[0])
        checks.write_annotations(str(inputs / "annotations.csv"), oracle, injected)
    else:
        shutil.copyfile(annotations, inputs / "annotations.csv")
    terms = sorted(oracle.terms[target])[::2]
    (inputs / "dictionary.txt").write_text(
        f"# every other term of {target}\n" + "".join(t + "\n" for t in terms), encoding="utf-8"
    )


def cases(query: str, target: str, labels: list[str]) -> list[tuple[str, list[str]]]:
    """(case name, argv) of every run on one corpus, after its synth cases."""
    c = ["--corpus", "corpus.jsonl"]
    sep = ["--corpus", "separator.jsonl"]
    csv_corpus = ["--corpus", "corpus.csv", "--csv"]
    series = [a for d in labels for a in ("--series", f"{query}@{d}")]
    g = ["--term", query, "--discipline", target]
    simulate = ["simulate", "--c", "0.6", "--pm", "100", "--p0", "5", "--t-end", "20",
                "--dt", "0.5"]
    return [
        ("ingest", ["ingest", *c, "--out", "ingest.csv"]),
        ("ingest_stdout", ["ingest", *c]),
        ("ingest_csv", ["ingest", *csv_corpus, "--out", "ingest.csv"]),
        ("ingest_json", ["ingest", *c, "--format", "json", "--out", "ingest.json"]),
        ("ingest_bin1", ["ingest", *c, "--bin-width", "1", "--out", "ingest.csv"]),
        ("ingest_bin3", ["ingest", *c, "--bin-width", "3", "--out", "ingest.csv"]),
        ("ingest_anchor", ["ingest", *c, "--anchor-year", "1975", "--out", "ingest.csv"]),
        ("rank", ["rank", *c, "--discipline", target, "--out", "rank.csv"]),
        ("rank_csv", ["rank", *csv_corpus, "--discipline", target, "--out", "rank.csv"]),
        ("rank_dictionary", ["rank", *c, "--discipline", target, "--dictionary",
                             "dictionary.txt", "--out", "rank.csv"]),
        ("rank_bin3", ["rank", *c, "--discipline", target, "--bin-width", "3",
                       "--anchor-year", "1975", "--out", "rank.csv"]),
        ("mdelta", ["mdelta", *c, "--annotations", "annotations.csv", "--smooth",
                    "--out", "mdelta.csv"]),
        ("mdelta_dictionary", ["mdelta", *c, "--annotations", "annotations.csv",
                               "--discipline", target, "--dictionary", "dictionary.txt",
                               "--out", "mdelta.csv"]),
        ("mdelta_dictionary_disc", ["mdelta", *c, "--annotations", "annotations.csv",
                                    "--dictionary", f"{target}=dictionary.txt",
                                    "--smooth", "--out", "mdelta.csv"]),
        ("mdelta_bin1", ["mdelta", *c, "--annotations", "annotations.csv", "--bin-width", "1",
                         "--smooth", "--out", "mdelta.csv"]),
        ("trend", ["trend", *c, *g, "--out", "trend.csv"]),
        ("trend_csv", ["trend", *csv_corpus, *g, "--out", "trend.csv"]),
        ("trend_bin1", ["trend", *c, *g, "--bin-width", "1", "--out", "trend.csv"]),
        ("trend_bin3", ["trend", *c, *g, "--bin-width", "3", "--out", "trend.csv"]),
        ("trend_anchor", ["trend", *c, *g, "--anchor-year", "1975", "--out", "trend.csv"]),
        ("trend_plot", ["trend", *c, *g, "--plot", "trend.svg", "--out", "trend.csv"]),
        ("trend_plot_stdout", ["trend", *c, *g, "--plot", "-", "--out", "trend.csv"]),
        ("migrate", ["migrate", *c, "--term", query, "--out", "migrate.json"]),
        ("migrate_bin1", ["migrate", *c, "--term", query, "--bin-width", "1",
                          "--out", "migrate.json"]),
        ("fit", ["fit", *c, *g, "--out", "fit.json"]),
        ("plot", ["plot", *c, *series, "--out", "plot.svg"]),
        ("plot_csv", ["plot", *csv_corpus, *series, "--out", "plot.svg"]),
        ("ingest_separator", ["ingest", *sep, "--out", "ingest.csv"]),
        ("rank_separator", ["rank", *sep, "--discipline", target, "--out", "rank.csv"]),
        ("trend_separator", ["trend", *sep, *g, "--out", "trend.csv"]),
        ("migrate_separator", ["migrate", *sep, "--term", query, "--out", "migrate.json"]),
        ("fit_separator", ["fit", *sep, *g, "--out", "fit.json"]),
        ("simulate", [*simulate, "--out", "simulate.csv"]),
        ("simulate_euler", [*simulate, "--euler", "--out", "simulate.csv"]),
        # error runs: exit 1 with one error line, and no artifact
        ("repeated_id", ["ingest", "--corpus", "repeated.jsonl", "--out", "ingest.csv"]),
        ("repeated_ids", ["ingest", "--corpus", "repeated_ids.jsonl", "--out", "ingest.csv"]),
        ("unknown_discipline", ["rank", *c, "--discipline", "no such discipline",
                                "--out", "rank.csv"]),
        ("trend_bad_term_repeated", ["trend", "--corpus", "repeated.jsonl", "--term", "!!",
                                     "--discipline", target, "--out", "trend.csv"]),
    ]


def run_corpus(out: Path, name: str, seed: int, tiny: bool) -> list[str]:
    """Every case on one corpus; returns the cases whose exit code was unexpected."""
    root = out / name
    inputs = root / "inputs"
    inputs.mkdir(parents=True)
    truth = ["--truth", "truth.json", "--out", "corpus.jsonl"]
    if name == "golden":
        shutil.copyfile(GOLDEN / "scenario.json", inputs / "scenario.json")
        query, target, annotations = "chaos theory", "math", GOLDEN / "annotations.csv"
        labels = ["math", "social science", "history"]
        synth = ["synth", "--spec", "scenario.json", *truth]
    else:
        wl = workloads.build(name, tiny)
        (inputs / "scenario.json").write_text(json.dumps(wl.scenario(seed)), encoding="utf-8")
        query, target, annotations, labels = wl.query, wl.labels[0], None, wl.labels
        synth = ["synth", "--spec", "scenario.json", "--seed", str(seed), *truth]
    unexpected = []
    if run_case(root / "synth", inputs, synth):
        return ["synth"]
    write_inputs(inputs, root / "synth", query, target, annotations)
    env_synth = ["synth", "--spec", "scenario.json", *truth]
    if run_case(root / "synth_env", inputs, env_synth, {"TERMFLOW_SEED": str(seed + 1)}):
        unexpected.append("synth_env")
    for case, argv in cases(query, target, labels):
        code = run_case(root / case, inputs, argv)
        if code != (1 if case in FAILING else 0):
            unexpected.append(case)
    return unexpected


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("outdir", type=Path)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--tiny", action="store_true", help="shrink the two workloads")
    args = parser.parse_args(argv)
    if args.outdir.exists():
        parser.error(f"{args.outdir} exists; give a new directory")
    unexpected = []
    for name in ("golden", "wide_vocab", "many_docs"):
        unexpected += [f"{name}/{case}" for case in run_corpus(args.outdir.resolve(), name,
                                                                 args.seed, args.tiny)]
    if unexpected:
        print("unexpected exit codes: " + ", ".join(unexpected), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
