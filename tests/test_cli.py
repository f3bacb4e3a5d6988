from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import pytest

import detsize
from detsize.boolmat import MAX_RANGE_CAP
from detsize.bounds import (
    all_but_one_bound,
    full_report,
    render_report_text,
    report_from_dict,
    report_from_json,
    report_to_dict,
)
from detsize.cli import _build_parser, _dfa_text, main
from detsize.determinize import minimize, subset_construct, subset_to_dfa
from detsize.fsa import Fsa, accepts, parse_fsa, serialize_fsa
from detsize.generators import (
    RandomNfaSpec,
    gen_meyer_fischer,
    gen_modified_moore,
    gen_moore,
    gen_random,
    gen_universal,
)

from conftest import build_families, build_random_nfas, cycle_and_identity
from oracles import text_by_format_rules


def child_env(**extra: str) -> dict[str, str]:
    """The environment of a child process that imports this package, with ``extra`` set."""
    return dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(detsize.__file__)), **extra)


def run_cli(*args: str) -> subprocess.CompletedProcess:
    """``python -m detsize`` in a child process that imports this package."""
    return subprocess.run([sys.executable, "-m", "detsize", *args], capture_output=True, text=True, env=child_env())


def write(tmp_path, name, automaton) -> str:
    path = tmp_path / name
    path.write_text(serialize_fsa(automaton))
    return str(path)


# every gen random option at a value other than its RandomNfaSpec default
RANDOM_OPTIONS = ["--sigma", "3", "--density", "0.6", "--initial-density", "0.7", "--final-density", "0.8",
                  "--seed", "5", "--trim", "--total"]
RANDOM_SPEC = dict(alphabet_size=3, density=0.6, initial_density=0.7, final_density=0.8, seed=5,
                   force_trim=True, force_total=True)


class TestGen:
    def test_moore4_file(self, tmp_path, capsys):
        out = tmp_path / "m4.fsa"
        assert main(["gen", "moore", "--n", "4", "--out", str(out)]) == 0
        a = parse_fsa(out.read_text())
        assert a == gen_moore(4)

    def test_random_is_deterministic(self, capsys):
        args = ["gen", "random", "--n", "5", "--sigma", "2", "--density", "0.3", "--seed", "7"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first

    @pytest.mark.parametrize(
        "options, spec",
        [
            ([], {}),
            (RANDOM_OPTIONS + ["--codeterministic"], dict(RANDOM_SPEC, force_codeterministic=True)),
            (RANDOM_OPTIONS, RANDOM_SPEC),
        ],
        ids=["n-only", "every-option", "every-option-but-codeterministic"],
    )
    def test_random_options_map_to_spec_fields(self, options, spec, capsys):
        assert main(["gen", "random", "--n", "4", *options]) == 0
        assert capsys.readouterr().out == serialize_fsa(gen_random(RandomNfaSpec(n=4, **spec)))

    def test_gadget_mf_base_without_initial_state_is_usage_error(self, tmp_path, capsys):
        base = tmp_path / "b.fsa"
        base.write_text("q a q\nq b q\n@final q\n")
        assert main(["gen", "gadget-mf", "--base", str(base), "--t", "3"]) == 2
        assert capsys.readouterr().err == "error: base automaton must have an initial state\n"

    def test_mf_n1_is_usage_error(self, capsys):
        assert main(["gen", "mf", "--n", "1"]) == 2
        assert "error" in capsys.readouterr().err

    def test_missing_n_is_usage_error(self):
        result = run_cli("gen", "moore")
        assert result.returncode == 2
        assert "--n" in result.stderr
        assert "Traceback" not in result.stderr

    def test_random_retries_exhausted_is_usage_error(self):
        result = run_cli("gen", "random", "--n", "3", "--initial-density", "0", "--trim")
        assert result.returncode == 2
        assert result.stderr.startswith("error: retries exhausted")
        assert "Traceback" not in result.stderr

    def test_gadgets_from_base_file(self, tmp_path, capsys):
        base = write(tmp_path, "u.fsa", gen_universal())
        assert main(["gen", "gadget-mf", "--base", base, "--t", "4"]) == 0
        a = parse_fsa(capsys.readouterr().out)
        assert "#" in a.alphabet

    def test_unknown_family_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["gen", "nope"])
        assert info.value.code == 2


def _subcommands(parser: argparse.ArgumentParser) -> dict[str, argparse.ArgumentParser]:
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def _options(p: argparse.ArgumentParser) -> dict[str, bool]:
    """Option string -> whether it takes a value, for each option ``p`` declares."""
    return {s: a.nargs != 0 for a in p._actions for s in a.option_strings if s not in ("-h", "--help")}


# every command and gen family, keyed by its argv prefix, and its parser
COMMANDS: dict[tuple[str, ...], argparse.ArgumentParser] = {}
for _name, _p in _subcommands(_build_parser()).items():
    if _name == "gen":
        COMMANDS.update({("gen", family): fp for family, fp in _subcommands(_p).items()})
    else:
        COMMANDS[(_name,)] = _p
ALL_OPTIONS = {o: v for p in COMMANDS.values() for o, v in _options(p).items()}


def _foreign_options(command: tuple[str, ...]) -> list[tuple[str, bool]]:
    """(option, takes a value) for every option only other commands declare."""
    own = _options(COMMANDS[command])
    return [(o, v) for o, v in ALL_OPTIONS.items() if o not in own]


def test_foreign_option_pairs_cover_every_command():
    assert len(COMMANDS) == 13
    assert sum(len(_foreign_options(c)) for c in COMMANDS) == 176


@pytest.mark.parametrize("argv", [list(c) for c in COMMANDS])
def test_option_not_read_is_usage_error(argv, tmp_path, capsys):
    """Each command and gen family declares only the options it reads, and
    rejects every other command's option, spelled out or as an abbreviation
    of its own (``--n`` against ``--no-eps-removal``, ``--t`` against
    ``--trim`` and ``--total``)."""
    path = write(tmp_path, "u.fsa", gen_universal())
    base = list(argv)
    for action in COMMANDS[tuple(argv)]._actions:
        if not action.option_strings:
            base.append(path)
        elif action.required:
            base += [action.option_strings[0], path if action.type is None else "3"]
    wrong = []
    for option, takes_value in _foreign_options(tuple(argv)):
        stray = [option, "3"] if takes_value else [option]
        with pytest.raises(SystemExit) as info:
            main(base + stray)
        err = capsys.readouterr().err
        if info.value.code != 2 or f"unrecognized arguments: {' '.join(stray)}" not in err:
            wrong.append((option, info.value.code, err.strip().splitlines()[-1:]))
    assert wrong == [], f"{argv}: {wrong}"


class TestDeterminize:
    def test_moore3_gives_eight_states(self, tmp_path, capsys):
        path = write(tmp_path, "m3.fsa", gen_moore(3))
        assert main(["determinize", path]) == 0
        captured = capsys.readouterr()
        assert captured.err.strip() == "8"
        assert parse_fsa(captured.out).n == 8

    def test_dfa_input_same_count(self, tmp_path, capsys):
        path = write(tmp_path, "u.fsa", gen_universal())
        assert main(["determinize", path]) == 0
        assert parse_fsa(capsys.readouterr().out).n == 1

    def test_blow_up_exit_code(self, tmp_path, capsys):
        path = write(tmp_path, "m25.fsa", gen_moore(25))
        assert main(["determinize", path, "--max-states", "1000"]) == 3
        assert "1000 states" in capsys.readouterr().err

    def test_epsilon_removed_automatically(self, tmp_path, capsys):
        path = tmp_path / "eps.fsa"
        path.write_text("q0 <eps> q1\nq1 a q1\n@initial q0\n@final q1\n")
        assert main(["determinize", str(path)]) == 0

    def test_no_eps_removal_flag_errors(self, tmp_path, capsys):
        path = tmp_path / "eps.fsa"
        path.write_text("q0 <eps> q1\nq1 a q1\n@initial q0\n@final q1\n")
        assert main(["determinize", str(path), "--no-eps-removal"]) == 2
        assert "epsilon" in capsys.readouterr().err

    def test_parse_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.fsa"
        path.write_text("q0 a\n")
        assert main(["determinize", str(path)]) == 2

    def test_missing_file(self, capsys):
        assert main(["determinize", "/nonexistent.fsa"]) == 2
        assert capsys.readouterr().err == "error: [Errno 2] No such file or directory: '/nonexistent.fsa'\n"

    def test_out_into_missing_directory(self, tmp_path, capsys):
        path = write(tmp_path, "u.fsa", gen_universal())
        out = tmp_path / "absent" / "out.fsa"
        assert main(["determinize", path, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"1\nerror: [Errno 2] No such file or directory: '{out}'\n"
        assert not out.parent.exists()

    def test_blow_up_writes_no_out_file(self, tmp_path):
        out = tmp_path / "p"
        result = run_cli("determinize", write(tmp_path, "m12.fsa", gen_moore(12)), "--max-states", "10", "--out", str(out))
        assert result.returncode == 3
        assert result.stderr == "blow-up abort: 10 states found\n"
        assert not out.exists()

    def test_unwritable_out_is_usage_error(self, tmp_path):
        result = run_cli("determinize", write(tmp_path, "m12.fsa", gen_moore(12)), "--out", str(tmp_path))
        assert result.returncode == 2
        assert result.stderr.startswith("4096\nerror: ")
        assert "Traceback" not in result.stderr

    def test_text_comes_in_chunks(self):
        s = subset_construct(gen_moore(12))
        n, chunks = _dfa_text(s, False)
        chunks = list(chunks)
        text = "".join(chunks)
        assert n == 4096
        assert text == serialize_fsa(subset_to_dfa(s))
        lines = [chunk.count("\n") for chunk in chunks if chunk]
        assert all(chunk.endswith("\n") for chunk in chunks if chunk)  # whole lines only
        assert 1 < len(lines) and max(lines) <= sum(lines) // 2

    # a buffered stdout raises EPIPE only when flushed, an unbuffered one at once
    @pytest.mark.parametrize("unbuffered", ["", "1"])
    def test_reader_closing_stdout_early_ends_output_quietly(self, tmp_path, unbuffered):
        """The text is written in chunks; a reader that leaves after 100 bytes causes no error message and exit 0."""
        env = child_env(PYTHONUNBUFFERED=unbuffered)
        cmd = [sys.executable, "-m", "detsize", "determinize", write(tmp_path, "m12.fsa", gen_moore(12))]
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
            assert len(proc.stdout.read(100)) == 100
            proc.stdout.close()
            err = proc.stderr.read()
        assert proc.returncode == 0
        assert err == b"4096\n"

    @pytest.mark.parametrize("unbuffered", ["", "1"])
    def test_stdout_without_reader_keeps_the_verdict(self, tmp_path, unbuffered):
        """Output lost to a closed stdout does not change the exit status: 1 still means "not universal"."""
        env = child_env(PYTHONUNBUFFERED=unbuffered)
        cmd = [sys.executable, "-m", "detsize", "universal", write(tmp_path, "m3.fsa", gen_moore(3))]
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            result = subprocess.run(cmd, stdout=write_end, stderr=subprocess.PIPE, env=env)
        finally:
            os.close(write_end)
        assert result.returncode == 1
        assert result.stderr == b""


class TestMinimize:
    def test_moore3(self, tmp_path, capsys):
        path = write(tmp_path, "m3.fsa", gen_moore(3))
        assert main(["minimize", path]) == 0
        captured = capsys.readouterr()
        assert parse_fsa(captured.out).n == 8
        assert captured.err.strip() == "8"


# inputs that reach each rule of the CLI's DFA text writer; Moore 2 (whose
# empty subset is reached as S3=) and Moore 6 (already minimal) are families
EDGE_CASES = [
    ("pinned-alphabet", Fsa.make([("q0", "a", "q1"), ("q1", "b", "q0")], ["q0"], ["q1"], alphabet=["b", "a"])),
    ("string-order", Fsa.make([("q0", "a2", "q1"), ("q1", "a10", "q0"), ("q1", "b", "q1")], ["q0"], ["q1"])),
    ("empty-alphabet", Fsa.make(states=["q0", "q1"], initial=["q0"], final=["q0"])),
    ("comma-names", Fsa.make([("p,1", "a", "p,1"), ("p,1", "a", "p,2")], ["p,1"], ["p,2"])),
    ("minimize-shrinks", Fsa.make([("q0", "a", "q1"), ("q1", "a", "q1")], ["q0"], ["q0", "q1"])),
]
TEXT_CASES = EDGE_CASES + [(f"family[{i}]", a) for i, a in enumerate(build_families())]
TEXT_CASES += [(f"random[{i}]", a) for i, a in enumerate(build_random_nfas(50))]


def _library_dfas(a: Fsa) -> dict[str, Fsa]:
    """What each command writes, as the library builds it, for the automaton
    the CLI reads from ``a``'s text: a text round trip may reorder states."""
    dfa = subset_to_dfa(subset_construct(parse_fsa(serialize_fsa(a))))
    return {"determinize": dfa, "minimize": minimize(dfa)}


@pytest.mark.parametrize("a", [a for _, a in TEXT_CASES], ids=[name for name, _ in TEXT_CASES])
def test_output_text_equals_library_text(a, tmp_path, capsys):
    path = write(tmp_path, "a.fsa", a)
    for command, want in _library_dfas(a).items():
        assert main([command, path]) == 0
        captured = capsys.readouterr()
        assert captured.out == serialize_fsa(want)
        assert captured.err == f"{want.n}\n"


@pytest.mark.parametrize("a", [a for _, a in TEXT_CASES], ids=[name for name, _ in TEXT_CASES])
def test_output_text_follows_the_format_rules(a, tmp_path, capsys):
    path = write(tmp_path, "a.fsa", a)
    for command, dfa in _library_dfas(a).items():
        assert main([command, path]) == 0
        assert capsys.readouterr().out == text_by_format_rules(dfa)


def test_edge_cases_reach_each_writer_rule():
    cases = dict(EDGE_CASES, moore2=gen_moore(2), moore6=gen_moore(6))
    dfas = {name: _library_dfas(a) for name, a in cases.items()}
    text = {name: serialize_fsa(d["determinize"]) for name, d in dfas.items()}
    assert text["pinned-alphabet"].startswith("@alphabet b a\n")
    assert text["string-order"].startswith("@alphabet a2 a10 b\nS0=q0 a10 ")
    assert text["empty-alphabet"] == "@initial S0=q0\n@final S0=q0\n"
    assert "S1=p,1,p,2 a S1=p,1,p,2\n" in text["comma-names"]
    assert "S3= a S3=\n" in text["moore2"]
    assert dfas["moore6"]["minimize"] is dfas["moore6"]["determinize"]
    assert dfas["minimize-shrinks"]["minimize"].states == ("m0",)


@pytest.mark.parametrize("command", ["determinize", "minimize"])
def test_no_fsa_built_beyond_the_input(command, tmp_path, monkeypatch, capsys):
    """The DFA text comes straight from the subset table: the only ``Fsa``
    the command builds is the one it parses."""
    path = write(tmp_path, "a.fsa", dict(EDGE_CASES)["minimize-shrinks"])
    built = []
    post_init = Fsa.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(Fsa, "__post_init__", counting)
    assert main([command, path]) == 0
    assert len(built) == 1


class TestStateComplexity:
    def test_meyer_fischer5(self, tmp_path, capsys):
        path = write(tmp_path, "mf5.fsa", gen_meyer_fischer(5))
        assert main(["state-complexity", path]) == 0
        assert capsys.readouterr().out.strip() == "32"

    def test_no_final_states(self, tmp_path, capsys):
        path = tmp_path / "nf.fsa"
        path.write_text("q0 a q1\nq1 a q0\n@initial q0\n")
        assert main(["state-complexity", str(path)]) == 0
        assert capsys.readouterr().out.strip() == "1"

    def test_universal(self, tmp_path, capsys):
        path = write(tmp_path, "u.fsa", gen_universal())
        assert main(["state-complexity", path]) == 0
        assert capsys.readouterr().out.strip() == "1"

    def test_blow_up_exit(self, tmp_path, capsys):
        path = write(tmp_path, "m20.fsa", gen_moore(20))
        assert main(["state-complexity", path, "--max-states", "100"]) == 3


class TestBounds:
    def test_modified_moore5_text(self, tmp_path, capsys):
        path = write(tmp_path, "mm5.fsa", gen_modified_moore(5))
        assert main(["bounds", path]) == 0
        out = capsys.readouterr().out
        line = next(l for l in out.splitlines() if l.startswith("subset_complexity:"))
        assert int(line.split()[1]) <= 90
        assert "soundness" in out
        assert "FAIL" not in out

    def test_moore4_all_pass(self, tmp_path, capsys):
        path = write(tmp_path, "m4.fsa", gen_moore(4))
        assert main(["bounds", path]) == 0
        out = capsys.readouterr().out
        assert "subset_size: 16" in out
        assert out.count("PASS") == 4
        assert "FAIL" not in out

    def test_large_alphabet_keeps_other_fields(self, tmp_path):
        path = tmp_path / "wide.fsa"
        path.write_text("".join(f"p {chr(ord('a') + k)} q\n" for k in range(17)) + "q a p\n@initial p\n@final q\n")
        result = run_cli("bounds", str(path))
        assert result.returncode == 0
        assert "Traceback" not in result.stderr
        fields = dict(line.split(": ", 1) for line in result.stdout.splitlines())
        assert fields["subset_complexity"].startswith("unavailable")
        assert "range cap" not in fields["subset_complexity"]
        assert fields["subset_complexity_split"] == "-"
        for name in ("subset_size", "monoid_bound", "range_bound", "all_but_one_certified", "all_but_one_estimate"):
            assert fields[name].isdigit(), name
        assert sum(line.startswith("symbol ") for line in result.stdout.splitlines()) == 17

    @pytest.mark.parametrize("fmt", ["text", "tree"])
    def test_estimate_too_long_to_write_degrades_alone(self, fmt, tmp_path):
        # the all-but-one estimate has 6,960 digits, past the default int-to-str limit
        k = 300
        cycle = cycle_and_identity(k)
        result = run_cli("bounds", write(tmp_path, "cycle.fsa", cycle), "--format", fmt)
        assert (result.returncode, result.stderr) == (0, "")
        report = full_report(cycle)
        assert report.subset_size == report.subset_complexity == report.monoid_bound == k
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit, as before Python 3.10.7
        too_long = 0 < limit < 6_960
        assert (report.all_but_one_estimate is None) == too_long
        assert all_but_one_bound(cycle, report.all_but_one_target)[1] == report.all_but_one_estimate
        if fmt == "text":
            assert result.stdout == render_report_text(report)
            assert ("all_but_one_estimate: unavailable\n" in result.stdout) == too_long
        else:
            assert report_from_json(result.stdout) == report

    A_CYCLE2200 = Fsa.make([(f"c{i}", "a", f"c{(i + 1) % 2200}") for i in range(2200)], ["c0"], ["c0"])
    RANGE_LINE = f"range_bound: {2**2200 + 1}\n"  # 663 digits

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str limit before Python 3.10.7")
    def test_exact_values_are_written_past_the_int_to_str_limit(self, tmp_path):
        path = write(tmp_path, "cycle.fsa", self.A_CYCLE2200)
        result = subprocess.run([sys.executable, "-X", "int_max_str_digits=640", "-m", "detsize", "bounds", path,
                                 "--monoid-cap", "50"], capture_output=True, text=True, env=child_env())
        assert (result.returncode, result.stderr) == (0, "")
        assert self.RANGE_LINE in result.stdout

    def test_in_process_run_keeps_the_int_to_str_limit(self, int_str_limit, tmp_path, capsys):
        path = write(tmp_path, "cycle.fsa", self.A_CYCLE2200)
        int_str_limit(640)
        assert main(["bounds", path, "--monoid-cap", "50"]) == 0
        assert sys.get_int_max_str_digits() == 640
        assert self.RANGE_LINE in capsys.readouterr().out

    @pytest.mark.parametrize("option, name", [("--monoid-cap", "monoid_cap"), ("--max-states", "max_states")])
    def test_cap_below_one_is_usage_error(self, option, name, tmp_path):
        result = run_cli("bounds", write(tmp_path, "m18.fsa", gen_moore(18)), option, "0")
        assert result.returncode == 2
        assert name in result.stderr
        assert "Traceback" not in result.stderr

    def test_negative_range_cap_is_usage_error(self, tmp_path):
        result = run_cli("bounds", write(tmp_path, "m2.fsa", gen_moore(2)), "--range-cap", "-3")
        assert (result.returncode, result.stdout) == (2, "")
        assert result.stderr == "error: range_cap must be at least 0\n"

    def test_range_cap_above_ceiling_is_usage_error(self, tmp_path):
        result = run_cli("bounds", write(tmp_path, "m2.fsa", gen_moore(2)), "--range-cap", str(MAX_RANGE_CAP + 1))
        assert (result.returncode, result.stdout) == (2, "")
        assert result.stderr == f"error: range_cap must be at most {MAX_RANGE_CAP}\n"

    def test_tree_format_round_trips(self, tmp_path, capsys):
        path = write(tmp_path, "u.fsa", gen_universal())
        assert main(["bounds", path, "--format", "tree"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert report_from_dict(data) == full_report(gen_universal())
        assert data == report_to_dict(full_report(gen_universal()))


class TestUniversalCmd:
    def test_universal_input(self, tmp_path, capsys):
        path = write(tmp_path, "u.fsa", gen_universal())
        assert main(["universal", path]) == 0
        assert capsys.readouterr().out.strip() == "universal"

    def test_all_final_total(self, tmp_path, capsys):
        path = tmp_path / "t.fsa"
        path.write_text("q0 a q1\nq0 b q0\nq1 a q0\nq1 b q1\n@initial q0\n@final q0\n@final q1\n")
        assert main(["universal", str(path)]) == 0

    def test_moore3_witness_is_rejected(self, tmp_path, capsys):
        path = write(tmp_path, "m3.fsa", gen_moore(3))
        assert main(["universal", path]) == 1
        out = capsys.readouterr().out.strip()
        assert out.startswith("not universal: ")
        witness = out.removeprefix("not universal: ")
        word = () if witness == "<eps>" else tuple(witness.split())
        assert not accepts(gen_moore(3), word)

    @pytest.mark.parametrize(
        "text",
        [
            serialize_fsa(gen_moore(24)).encode(),  # answers at once under the default cap
            b"\xef\xbb\xbf@initial q0\nq0 a q1\n@final q1\n",  # as some editors save UTF-8
        ],
        ids=["moore24", "byte-order-mark"],
    )
    def test_empty_word_rejected(self, text, tmp_path):
        path = tmp_path / "a.fsa"
        path.write_bytes(text)
        result = run_cli("universal", str(path))
        assert result.returncode == 1
        assert result.stdout == "not universal: <eps>\n"

    def test_cap_without_witness_exits_3(self, tmp_path, capsys):
        path = tmp_path / "t.fsa"
        path.write_text("q0 a q1\nq0 b q0\nq1 a q0\nq1 b q1\n@initial q0\n@final q0\n@final q1\n")
        assert main(["universal", str(path), "--max-states", "1"]) == 3
        assert "blow-up abort: 1 states found" in capsys.readouterr().err


class TestEquiv:
    def test_file_vs_itself(self, tmp_path, capsys):
        path = write(tmp_path, "m3.fsa", gen_moore(3))
        assert main(["equiv", path, path]) == 0

    def test_cap_without_witness_exits_3(self, tmp_path, capsys):
        path = write(tmp_path, "m8.fsa", gen_moore(8))
        assert main(["equiv", path, path, "--max-states", "100"]) == 3
        assert "blow-up abort: 100 states found" in capsys.readouterr().err

    def test_witness_before_cap(self, tmp_path, capsys):
        p1 = write(tmp_path, "m20.fsa", gen_moore(20))
        p2 = write(tmp_path, "u.fsa", gen_universal())
        assert main(["equiv", p1, p2, "--max-states", "10"]) == 1
        assert capsys.readouterr().out == "not equivalent: <eps>\n"

    def test_moore_vs_universal_witness(self, tmp_path, capsys):
        p1 = write(tmp_path, "m3.fsa", gen_moore(3))
        p2 = write(tmp_path, "u.fsa", gen_universal())
        assert main(["equiv", p1, p2]) == 1
        out = capsys.readouterr().out.strip()
        witness = out.removeprefix("not equivalent: ")
        word = () if witness == "<eps>" else tuple(witness.split())
        assert accepts(gen_moore(3), word) != accepts(gen_universal(), word)

    def test_epsilon_padded_variant_is_equivalent(self, tmp_path, capsys):
        p1 = write(tmp_path, "m3.fsa", gen_moore(3))
        # reroute one edge through an epsilon hop
        padded = (
            "q1 a qx\nqx <eps> q2\nq1 b q1\nq2 a q3\nq2 b q3\nq3 a q1\nq3 a q2\n"
            "@initial q1\n@final q3\n"
        )
        p2 = tmp_path / "pad.fsa"
        p2.write_text(padded)
        assert main(["equiv", p1, str(p2)]) == 0


class TestEntryPoint:
    def test_module_invocation(self):
        result = run_cli("gen", "universal")
        assert result.returncode == 0
        assert result.stdout == "q a q\nq b q\n@initial q\n@final q\n"
