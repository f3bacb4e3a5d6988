"""Differential test: the determinization layer's answers on the seeded corpora
must match a fixture captured once from a reference build of the library.

For every automaton of ``build_random_nfas()`` plus ``build_families()`` the
fixture holds one compact JSON line with its state complexity, its shortest
rejected word, the SHA-256 of the serialized subset DFA and of the serialized
minimal DFA (so ``subset_to_dfa`` and ``minimize`` output, state names
included, stays byte-identical) and the shortest word telling it apart from
the next automaton of the list (the last one is compared with the first).
The text the ``determinize`` and ``minimize`` commands write straight from
the subset table is held to the same two hashes.

To recapture (only when an answer is meant to change), run from the repo root:

    PYTHONPATH=src python tests/test_determinize_fixture.py --write
"""

from __future__ import annotations

import gzip
import hashlib
import json
import sys
from pathlib import Path

from detsize.cli import _dfa_text
from detsize.determinize import (
    distinguishing_word,
    minimize,
    state_complexity,
    subset_construct,
    subset_to_dfa,
    universality_witness,
)
from detsize.fsa import serialize_fsa

from conftest import build_families, build_random_nfas

FIXTURE = Path(__file__).parent / "data" / "determinize.jsonl.gz"


def _cases():
    corpus = [(f"random[{i}]", a) for i, a in enumerate(build_random_nfas())]
    corpus += [(f"family[{i}]", a) for i, a in enumerate(build_families())]
    for (name, a), (_, b) in zip(corpus, corpus[1:] + corpus[:1]):
        yield name, a, b


def _word(w) -> list[str] | None:
    return None if w is None else list(w)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _answers(a, b) -> dict:
    s = subset_construct(a)
    dfa = subset_to_dfa(s)
    return {
        "state_complexity": state_complexity(a),
        "universality_witness": _word(universality_witness(a)),
        "minimize_sha256": _sha256(serialize_fsa(minimize(dfa))),
        "distinguishing_word_next": _word(distinguishing_word(a, b)),
        "determinize_sha256": _sha256(serialize_fsa(dfa)),
        # not written to the fixture
        "cli_determinize_sha256": _sha256("".join(_dfa_text(s, False)[1])),
        "cli_minimize_sha256": _sha256("".join(_dfa_text(s, True)[1])),
    }


def _line(a, b) -> str:
    answers = {key: value for key, value in _answers(a, b).items() if not key.startswith("cli_")}
    return json.dumps(answers, separators=(",", ":"))


def test_answers_match_fixture():
    with gzip.open(FIXTURE, "rt", encoding="utf-8") as fh:
        expected = [json.loads(line) for line in fh.read().splitlines()]
    cases = list(_cases())
    assert len(cases) == len(expected), f"{len(cases)} cases against {len(expected)} fixture lines"
    for (name, a, b), want in zip(cases, expected):
        got = _answers(a, b)
        for key, value in want.items():
            assert got[key] == value, f"first differing case: {name} {key}\n got: {got[key]}\nwant: {value}"
        for key in ("determinize_sha256", "minimize_sha256"):
            assert got[f"cli_{key}"] == want[key], f"first differing case: {name} cli_{key}"


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    FIXTURE.parent.mkdir(exist_ok=True)
    with gzip.GzipFile(FIXTURE, "wb", mtime=0) as raw:
        raw.write("".join(_line(a, b) + "\n" for _, a, b in _cases()).encode("utf-8"))
