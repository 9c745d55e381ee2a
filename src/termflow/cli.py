"""Batch command-line front end.

Subcommands compose through files (or stdin/stdout with ``-``): synthesize
a corpus, ingest it, rank terms, compute hardness reports, trace trends,
fit diffusion curves, build migration reports, and render SVG charts. All
outputs are deterministic for fixed inputs and seed, and every artifact
embeds the resolved run configuration.

Term syntax: tokens of a phrase separated by spaces, required co-occurring
terms appended with '+', e.g. ``"cold fusion"`` or ``"add+attention"``.
The plot subcommand additionally accepts ``term@discipline`` series specs.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import io
import json
import math
import os
import sys
from typing import Optional

from . import corpus, diffusion, measure, migration, plotting, rank, synth, trend
from .errors import TermflowError


class InvalidSeed(TermflowError):
    pass


def _checked(convert, accept, requirement: str):
    """An argparse type: ``convert`` the text, then refuse what ``accept`` rejects."""

    def parse(text: str):
        value = convert(text)
        if not accept(value):
            raise argparse.ArgumentTypeError(f"must be {requirement}, got {text!r}")
        return value

    # argparse names the type in its message when ``convert`` itself fails
    parse.__name__ = convert.__name__
    return parse


_positive_int = _checked(int, lambda v: v >= 1, "an integer >= 1")
_odd_positive_int = _checked(int, lambda v: v >= 1 and v % 2 == 1, "an odd integer >= 1")
_positive_finite = _checked(float, lambda v: 0 < v < math.inf, "a finite number > 0")
_non_negative_finite = _checked(float, lambda v: 0 <= v < math.inf, "a finite number >= 0")
_finite = _checked(float, math.isfinite, "a finite number")
# NaN fails the comparison; inf is allowed and keeps every term on the exact branch
_non_negative = _checked(float, lambda v: v >= 0, "a number >= 0")


def _parse_query(text: str) -> corpus.TermQuery:
    parts = text.split("+")
    return corpus.TermQuery.parse(parts[0], coterms=parts[1:])


def _read_corpus(args: argparse.Namespace, build=None) -> corpus.CellCounts:
    """``build`` over the records of ``--corpus``, with ``--bin-width`` and
    ``--anchor-year``; by default ``corpus.ingest``, looked up at each call,
    which builds a :class:`corpus.CorpusIndex`. ``corpus.census`` and
    ``corpus.query_counts`` check every record and id too, but tokenize no
    text or only the documents that could match a query."""
    reader = corpus.read_csv_records if args.csv else corpus.read_jsonl_records
    return (build or corpus.ingest)(
        reader(args.corpus), bin_width=args.bin_width, anchor_year=args.anchor_year
    )


def _read_counting(args: argparse.Namespace, texts: list[str]) -> corpus.QueryCounts:
    """The ``corpus.query_counts`` of ``--corpus`` for the query ``texts``.

    Texts are parsed in order up to the first that does not parse. The
    command parses each text again where it reads it, so that one raises
    after every record and id is checked and after the errors of the texts
    before it, as it would if the counts held every term.
    """
    queries = []
    for text in texts:
        try:
            queries.append(_parse_query(text))
        except corpus.InvalidQuery:
            break
    return _read_corpus(args, functools.partial(corpus.query_counts, queries=queries))


def _resolve_seed(args: argparse.Namespace, fallback: int = 0) -> int:
    env = os.environ.get("TERMFLOW_SEED")
    if env is not None:
        try:
            seed = int(env)
        except ValueError:
            raise InvalidSeed(f"TERMFLOW_SEED must be an integer, got {env!r}") from None
    else:
        seed = fallback if args.seed is None else args.seed
    if seed < 0:
        raise InvalidSeed(f"seed must be an integer >= 0, got {seed}")
    return seed


def _config_dict(args: argparse.Namespace) -> dict:
    """The run configuration; a non-finite float becomes its string form
    (``"inf"``), so the config is strict JSON."""
    return {
        k: str(v) if isinstance(v, float) and not math.isfinite(v) else v
        for k, v in sorted(vars(args).items())
        if k not in ("func", "out")
    }


def _config_line(cfg: dict) -> str:
    return "config " + json.dumps(cfg, sort_keys=True, allow_nan=False)


def _write_outputs(*artifacts: tuple[str, str]) -> None:
    """Write ``(text, out)`` artifacts as UTF-8, all or none; ``-`` is stdout.

    Each new or regular file is written to a temporary file beside it and
    renamed into place only once every artifact is written, so a run that
    fails part-way leaves none of them. Standard output and other targets,
    such as ``/dev/null``, are written in place before the renames.
    """
    staged, direct = [], []
    try:
        for i, (text, out) in enumerate(artifacts):
            if out == "-":
                direct.append((text, out))
                continue
            # encode first, so text that cannot be encoded leaves no file behind
            data = text.encode("utf-8")
            target = os.path.realpath(out)
            if os.path.exists(target) and not os.path.isfile(target):
                direct.append((data, out))
                continue
            tmp = f"{target}.{os.getpid()}.{i}.tmp"
            with open(tmp, "xb") as handle:
                staged.append((tmp, target))
                handle.write(data)
        for data, out in direct:
            if out == "-":
                sys.stdout.write(data)
            else:
                with open(out, "wb") as handle:
                    handle.write(data)
        for tmp, target in staged:
            os.replace(tmp, target)
    except BaseException:
        for tmp, _ in staged:
            if os.path.exists(tmp):
                os.remove(tmp)
        raise


def _text(write, *args, **kwargs) -> str:
    """What ``write(*args, handle=..., **kwargs)`` writes to its text handle."""
    handle = io.StringIO()
    write(*args, handle=handle, **kwargs)
    return handle.getvalue()


def _json_artifact(payload: dict, cfg: dict) -> str:
    return json.dumps({"config": cfg, **payload}, sort_keys=True, indent=2) + "\n"


def _add_corpus_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--corpus", required=True, help="JSONL corpus path or - for stdin")
    p.add_argument("--csv", action="store_true", help="corpus is CSV, not JSONL")
    p.add_argument("--bin-width", type=_positive_int, default=2)
    p.add_argument("--anchor-year", type=int, default=None)


def _add_trend_options(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--smoothing-window", type=_odd_positive_int, default=trend.DEFAULT_SMOOTHING_WINDOW
    )
    p.add_argument("--support-threshold", type=int, default=trend.DEFAULT_SUPPORT_THRESHOLD)


def cmd_ingest(args: argparse.Namespace, cfg: dict) -> list[tuple[str, str]]:
    index = _read_corpus(args, corpus.census)
    starts = [b.start_year for b in index.bins]
    if args.format == "json":
        payload = {
            "documents": index.n_documents,
            "disciplines": {d: index.discipline_totals[d] for d in index.disciplines},
            "bins": [
                {
                    "start_year": s,
                    "counts": {d: n for d in index.disciplines if (n := index.doc_count(d, s))},
                }
                for s in starts
            ],
        }
        return [(_json_artifact(payload, cfg), args.out)]
    rows = ((d, s, index.doc_count(d, s)) for d in index.disciplines for s in starts)
    header = ("discipline", "bin_start", "documents")
    csv_text = _text(corpus.write_csv, header=header, rows=rows, config_line=_config_line(cfg))
    return [(csv_text, args.out)]


def cmd_rank(args: argparse.Namespace, cfg: dict) -> list[tuple[str, str]]:
    index = _read_corpus(args)
    dictionary = (
        rank.load_dictionary(args.dictionary, args.discipline)
        if args.dictionary
        else None
    )
    ranking = rank.rank_terms(
        index, args.discipline, dictionary, normal_switch=args.normal_threshold
    )
    return [(_text(rank.write_ranking_csv, ranking, config_line=_config_line(cfg)), args.out)]


def cmd_mdelta(args: argparse.Namespace, cfg: dict) -> list[tuple[str, str]]:
    index = _read_corpus(args)
    disciplines = args.discipline or list(index.disciplines)
    paths = []  # (discipline, dictionary path), all checked before any is opened
    for spec in args.dictionary or []:
        if "=" in spec:
            disc, path = spec.split("=", 1)
        elif len(disciplines) == 1:
            disc, path = disciplines[0], spec
        else:
            raise TermflowError("use --dictionary DISCIPLINE=PATH with several disciplines")
        if disc not in disciplines:
            raise TermflowError(f"--dictionary {spec!r} names no reported discipline")
        paths.append((disc, path))
    dictionaries = {disc: rank.load_dictionary(path, disc) for disc, path in paths}

    n = args.list_length
    lists = []  # (top terms, bottom terms, discipline)
    for disc in disciplines:
        ranking = rank.rank_terms(index, disc, dictionaries.get(disc))
        lists.append((rank.top_terms(ranking, n), rank.bottom_terms(ranking, n), disc))
    # every annotation row is checked, but only the pairs the lists hold are kept
    pairs = {(t, disc) for top, bottom, disc in lists for t in (*top, *bottom)}
    annotations = measure.load_annotations(args.annotations, pairs)
    reports = [measure.m_delta(*lst, annotations, smoothing=args.smooth) for lst in lists]
    ordered = measure.hardness_ranking(reports)
    return [(_text(measure.write_reports_csv, ordered, config_line=_config_line(cfg)), args.out)]


def cmd_trend(args: argparse.Namespace, cfg: dict) -> list[tuple[str, str]]:
    index = _read_counting(args, [args.term])
    query = _parse_query(args.term)
    growth = trend.growth_pipeline(
        index, query, args.discipline, args.smoothing_window, args.support_threshold
    )
    artifacts = [(_text(trend.write_series_csv, growth, config_line=_config_line(cfg)), args.out)]
    if args.plot:
        svg = plotting.growth_chart_svg(
            [growth], title=f"{query.label()} in {args.discipline}", config=cfg
        )
        artifacts.append((svg, args.plot))
    # a chart that cannot be drawn or written leaves no CSV behind
    return artifacts


def cmd_migrate(args: argparse.Namespace, cfg: dict) -> list[tuple[str, str]]:
    index = _read_counting(args, [args.term])
    query = _parse_query(args.term)
    disciplines = args.disciplines or list(index.disciplines)
    series = {
        d: trend.growth_pipeline(index, query, d, args.smoothing_window, args.support_threshold)
        for d in disciplines
    }
    report = migration.classify_roles(
        series, strong_threshold=args.strong_threshold, query_label=query.label()
    )
    return [(_json_artifact(report.to_dict(), cfg), args.out)]


def cmd_fit(args: argparse.Namespace, cfg: dict) -> list[tuple[str, str]]:
    index = _read_counting(args, [args.term])
    query = _parse_query(args.term)
    series = diffusion.adoption_series(index, query, args.discipline)
    result = diffusion.fit(series)
    return [(_json_artifact(result.to_dict(), cfg), args.out)]


def cmd_simulate(args: argparse.Namespace, cfg: dict) -> list[tuple[str, str]]:
    params = diffusion.DiffusionParams(c=args.c, p_m=args.pm, p_0=args.p0)
    if args.euler:
        traj = diffusion.trajectory_euler(params, args.t_end, args.dt)
    else:
        times = [i * args.dt for i in range(diffusion.step_count(args.t_end, args.dt) + 1)]
        traj = diffusion.trajectory_closed_form(params, times)
    rows = ((f"{t:.12g}", f"{p:.12g}") for t, p in zip(traj.times, traj.p))
    header = ("t", "p")
    csv_text = _text(corpus.write_csv, header=header, rows=rows, config_line=_config_line(cfg))
    return [(csv_text, args.out)]


def cmd_synth(args: argparse.Namespace, cfg: dict) -> list[tuple[str, str]]:
    with open(args.spec, "r", encoding="utf-8") as handle:
        spec = synth.scenario_from_json(handle.read())
    seed = _resolve_seed(args, fallback=spec.seed)
    records, truth = synth.generate(dataclasses.replace(spec, seed=seed))
    artifacts = [(_text(corpus.write_jsonl_records, records), args.out)]
    if args.truth:
        cfg["seed"] = seed
        artifacts.append((_json_artifact(truth.to_dict(), cfg), args.truth))
    return artifacts


def cmd_plot(args: argparse.Namespace, cfg: dict) -> list[tuple[str, str]]:
    # a term's tokens hold no "@", so the first one ends the term
    index = _read_counting(args, [spec.split("@", 1)[0] for spec in args.series])
    series = []
    for spec in args.series:
        if "@" in spec:
            term_text, disc = spec.split("@", 1)
        elif len(index.disciplines) == 1:
            term_text, disc = spec, index.disciplines[0]
        else:
            raise TermflowError(f"series {spec!r} needs an @discipline suffix")
        series.append(trend.growth_pipeline(
            index, _parse_query(term_text), disc, args.smoothing_window, args.support_threshold
        ))
    svg = plotting.growth_chart_svg(series, title=args.title, config=cfg)
    return [(svg, args.out)]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="termflow",
        description="Term-trend analytics over discipline-tagged corpora.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("ingest", help="check every record and id and count documents per "
                       "cell, without building the token index")
    _add_corpus_options(p)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("rank", help="rank target-discipline terms by Poisson percentile")
    _add_corpus_options(p)
    p.add_argument("--discipline", required=True)
    p.add_argument("--dictionary", default=None, help="term list used as a filter")
    p.add_argument("--normal-threshold", type=_non_negative, default=rank.NORMAL_SWITCH_LAMBDA)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("mdelta", help="technical-sense hardness report per discipline")
    _add_corpus_options(p)
    p.add_argument("--annotations", required=True)
    p.add_argument("--discipline", action="append", default=None)
    p.add_argument("--dictionary", action="append", default=None, metavar="DISC=PATH")
    p.add_argument("--list-length", type=_positive_int, default=10)
    p.add_argument("--smooth", action="store_true")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_mdelta)

    p = sub.add_parser("trend", help="frequency and growth series for one query")
    _add_corpus_options(p)
    _add_trend_options(p)
    p.add_argument("--term", required=True)
    p.add_argument("--discipline", required=True)
    p.add_argument("--plot", default=None, help="also write an SVG chart here")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_trend)

    p = sub.add_parser("migrate", help="donor/borrower report for one query")
    _add_corpus_options(p)
    _add_trend_options(p)
    p.add_argument("--term", required=True)
    p.add_argument("--disciplines", nargs="*", default=None)
    p.add_argument("--strong-threshold", type=_finite, default=None)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_migrate)

    p = sub.add_parser("fit", help="fit diffusion parameters to a query's adoption")
    _add_corpus_options(p)
    p.add_argument("--term", required=True)
    p.add_argument("--discipline", required=True)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("simulate", help="evaluate a diffusion trajectory")
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--pm", type=float, required=True)
    p.add_argument("--p0", type=float, required=True)
    p.add_argument("--t-end", type=_non_negative_finite, default=20.0)
    p.add_argument("--dt", type=_positive_finite, default=1.0)
    p.add_argument("--euler", action="store_true", help="integrate instead of closed form")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("synth", help="generate a synthetic corpus from a scenario file")
    p.add_argument("--spec", required=True)
    p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p.add_argument("--truth", default=None, help="write ground truth JSON here")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("plot", help="SVG chart of smoothed growth series")
    _add_corpus_options(p)
    _add_trend_options(p)
    p.add_argument("--series", action="append", required=True, metavar="TERM@DISC")
    p.add_argument("--title", default="term growth rates")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_plot)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # a command returns its (text, path) artifacts; none is written if it fails
        _write_outputs(*args.func(args, _config_dict(args)))
    except (TermflowError, OSError, UnicodeError) as exc:
        code = exc.code if isinstance(exc, TermflowError) else f"io.{type(exc).__name__}"
        print(f"error code={code} msg={json.dumps(str(exc))}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
