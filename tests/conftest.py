from __future__ import annotations

import csv
import io
import itertools

import pytest

from termflow.corpus import DocumentRecord, ingest


_counter = itertools.count()


def make_doc(discipline: str, year: int, text: str, title: str = "") -> DocumentRecord:
    return DocumentRecord(
        id=f"doc{next(_counter):06d}",
        discipline=discipline,
        year=year,
        title=title,
        abstract=text,
    )


def csv_writer_text(rows, config_line=None) -> str:
    r"""What ``write_csv`` must write for ``rows``, its header first: the
    comment line, then each row as ``csv.writer`` writes it when told "\r\n",
    with that ending turned into "\n"."""
    out = [] if config_line is None else [f"# {config_line}\n"]
    for row in rows:
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\r\n").writerow(row)
        out.append(buf.getvalue()[:-2] + "\n")
    return "".join(out)


@pytest.fixture
def small_index():
    """Two disciplines, two bins, a handful of hand-checkable documents."""
    records = [
        make_doc("math", 1974, "chaos theory and strange attractors"),
        make_doc("math", 1975, "chaos chaos chaos everywhere"),
        make_doc("math", 1976, "fixed point theorems"),
        make_doc("math", 1977, "nonlinear chaos dynamics"),
        make_doc("education", 1974, "classroom management practice"),
        make_doc("education", 1976, "chaos in the classroom"),
    ]
    return ingest(records, bin_width=2)
