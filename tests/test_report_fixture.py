"""Differential test: ``report_to_dict`` output on the seeded corpora must match
a fixture captured once from a reference build of the library.

The fixture holds one compact JSON report per line, for every automaton of
``build_random_nfas()`` plus ``build_families()`` under each cap setting in
``CAP_SETTINGS``. The low monoid caps make closures cap early, which takes the
split search and the all-but-one ceiling through their capped paths. A report
asks for each split's closure once, so none is recomputed at a larger cap;
``test_bounds.py::TestFullReport::test_each_closure_enumerated_once`` checks
that under each of these caps, recording each ``_closure(space, ks, n, cap)`` call.

To recapture (only when a report is meant to change), run from the repo root:

    PYTHONPATH=src python tests/test_report_fixture.py --write
"""

from __future__ import annotations

import gzip
import json
import sys
from pathlib import Path

from detsize.bounds import full_report, report_to_dict

from conftest import build_families, build_random_nfas

FIXTURE = Path(__file__).parent / "data" / "reports.jsonl.gz"

# (label, caps, stride): the caps apply to every stride-th automaton
CAP_SETTINGS = (
    ("default", {}, 1),
    ("monoid50", {"monoid_cap": 50}, 1),
    ("monoid2", {"monoid_cap": 2}, 1),
    ("range4", {"range_cap": 4, "max_states": 8}, 3),
)


def _cases():
    corpus = [(f"random[{i}]", a) for i, a in enumerate(build_random_nfas())]
    corpus += [(f"family[{i}]", a) for i, a in enumerate(build_families())]
    for label, caps, stride in CAP_SETTINGS:
        for name, a in corpus[::stride]:
            yield f"{name} {label}", caps, a


def _line(caps: dict, a) -> str:
    return json.dumps(report_to_dict(full_report(a, **caps)), separators=(",", ":"))


def test_reports_match_fixture():
    with gzip.open(FIXTURE, "rt", encoding="utf-8") as fh:
        expected = fh.read().splitlines()
    cases = list(_cases())
    assert len(cases) == len(expected), f"{len(cases)} cases against {len(expected)} fixture lines"
    for (name, caps, a), want in zip(cases, expected):
        got = _line(caps, a)
        assert got == want, f"first differing report: {name}\n got: {got}\nwant: {want}"


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    FIXTURE.parent.mkdir(exist_ok=True)
    with gzip.GzipFile(FIXTURE, "wb", mtime=0) as raw:
        raw.write("".join(_line(caps, a) + "\n" for _, caps, a in _cases()).encode("utf-8"))
