from __future__ import annotations

import functools
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detsize.boolmat import BoolMatrix
from detsize.bounds import BoundReport, MonoidClosure, SymbolStats, full_report, monoid_closure, report_to_dict
from detsize.determinize import SubsetAutomaton, subset_construct, subset_to_dfa
from detsize.fsa import (
    EPSILON,
    Fsa,
    ParseError,
    _Record,
    accepts,
    complete_with_dead_state,
    fresh_state_name,
    is_codeterministic,
    is_deterministic,
    is_total,
    is_trim,
    parse_fsa,
    remove_epsilon,
    reverse,
    serialize_fsa,
    trim,
)
from detsize.generators import RandomNfaSpec, gen_moore, gen_random, gen_universal

from conftest import two_state_universal
from oracles import (
    accepts_by_path_search,
    deterministic_by_successor_count,
    fsa_equal_up_to_state_order,
    text_by_format_rules,
    words_upto,
)


def random_fsa(seed: int, *, n: int = 5, sigma: int = 2, density: float = 0.3) -> Fsa:
    return gen_random(RandomNfaSpec(n=n, alphabet_size=sigma, density=density, seed=seed))


def with_epsilons(a: Fsa, seed: int) -> Fsa:
    """Sprinkle a few epsilon transitions over an automaton, deterministically."""
    rng = random.Random(seed)
    trans = set(a.transitions)
    for _ in range(max(1, a.n // 2)):
        trans.add((rng.choice(a.states), EPSILON, rng.choice(a.states)))
    return Fsa(a.alphabet, a.states, a.initial, a.final, frozenset(trans))


class TestInvariants:
    def test_rejects_unknown_transition_endpoint(self):
        with pytest.raises(ValueError):
            Fsa(("a",), ("q0",), frozenset(), frozenset(), frozenset({("q0", "a", "q1")}))

    def test_rejects_unknown_symbol(self):
        with pytest.raises(ValueError):
            Fsa(("a",), ("q0",), frozenset(), frozenset(), frozenset({("q0", "b", "q0")}))

    def test_rejects_initial_outside_states(self):
        with pytest.raises(ValueError):
            Fsa(("a",), ("q0",), frozenset({"q1"}), frozenset(), frozenset())

    def test_epsilon_not_in_alphabet(self):
        with pytest.raises(ValueError):
            Fsa((EPSILON,), ("q0",), frozenset(), frozenset(), frozenset())

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"states": ("@x",)}, "invalid state name '@x'"),
            ({"states": ("p",), "transitions": [("p", "p")]}, "is not a triple"),
        ],
        ids=["directive-state-name", "pair-transition"],
    )
    def test_rejects_malformed_field(self, fields, message):
        with pytest.raises(ValueError, match=message):
            Fsa(**fields)

    @pytest.mark.parametrize(
        "field, value",
        [("alphabet", "ab"), ("states", "q"), ("initial", "q1"), ("final", "q1"), ("transitions", "qaq")],
    )
    @pytest.mark.parametrize("build", [Fsa, Fsa.make])
    def test_rejects_bare_string_for_a_collection(self, build, field, value):
        # read as a collection, "q1" would be the states "q" and "1"
        with pytest.raises(ValueError, match=f"^{field} must be a collection, not the string '{value}'$"):
            build(**{field: value})

    @pytest.mark.parametrize(
        "build",
        [lambda t: Fsa(("a",), ("q",), {"q"}, {"q"}, {t}), lambda t: Fsa.make([t], ["q"], ["q"])],
        ids=["Fsa", "Fsa.make"],
    )
    def test_rejects_string_transition(self, build):
        # read as letters, "qaq" would be the triple ("q", "a", "q")
        with pytest.raises(ValueError, match="^transition 'qaq' is a string, not a triple$"):
            build("qaq")
        assert build(("q", "a", "q")).transitions == {("q", "a", "q")}

    @pytest.mark.parametrize("transitions", [[("p", "q")], ["qaqq"], [("p", "a", "q"), ("p", "q")]],
                             ids=["pair", "string", "triple-and-pair"])
    def test_make_names_a_transition_that_is_not_a_triple(self, transitions):
        with pytest.raises(ValueError, match=r"^transition .+ not a triple$"):
            Fsa.make(transitions)

    def test_empty_state_set_is_legal(self):
        a = Fsa(("a",), (), frozenset(), frozenset(), frozenset())
        assert a.n == 0
        for w in words_upto(("a",), 3):
            assert not accepts(a, w)

    def test_duplicate_transitions_collapse(self):
        a = Fsa.make([("q0", "a", "q1"), ("q0", "a", "q1")], ["q0"], ["q1"])
        assert len(a.transitions) == 1


REPORT_FIELDS = """n alphabet subset_size subset_cap monoid_bound monoid_cap range_bound range_cap subset_complexity
    subset_split all_but_one_certified all_but_one_target all_but_one_estimate all_but_one_constant per_symbol"""


def _records() -> list:
    """(class, field values in field order, a field and another valid value for it) for each record class."""
    m = gen_moore(3)
    s = subset_construct(m)
    c = monoid_closure([BoolMatrix.identity(2)], cap=5)
    r = full_report(m)
    return [
        (Fsa, dict(alphabet=("a",), states=("q", "r"), initial=frozenset("q"), final=frozenset("r"),
                   transitions=frozenset({("q", "a", "r")})), ("final", frozenset("q"))),
        (BoolMatrix, dict(n=2, rows=(1, 3)), ("rows", (1, 2))),
        (SubsetAutomaton, dict(base=s.base, subsets=s.subsets, transitions=s.transitions, final_flags=s.final_flags),
         ("final_flags", (False,) * s.n)),
        (MonoidClosure, dict(packed=c.packed, row_of_id=c.row_of_id, n=c.n, capped=c.capped, cap=c.cap), ("cap", 6)),
        (SymbolStats, dict(symbol="a", rank=2, range_size=None, cyclicity=1), ("range_size", 3)),
        (BoundReport, {k: getattr(r, k) for k in REPORT_FIELDS.split()}, ("subset_size", None)),
        (RandomNfaSpec, dict(n=3, alphabet_size=2, density=0.3, initial_density=0.5, final_density=0.5, seed=7,
                             force_trim=True, force_total=False, force_codeterministic=False), ("seed", 8)),
    ]


RECORDS = _records()


@pytest.mark.parametrize("cls, fields, other", RECORDS, ids=[cls.__name__ for cls, _, _ in RECORDS])
def test_record_contract(cls, fields, other):
    """Each record class is a value: equal, hashed and shown by its fields in order, unchangeable, pickled whole."""
    x, y = cls(**fields), cls(*fields.values())
    assert cls.__match_args__ == tuple(fields)
    assert x == y and hash(x) == hash(y) and x is not y
    changed = cls(**{**fields, other[0]: other[1]})
    assert changed != x and x != tuple(fields.values())
    assert repr(x) == f"{cls.__name__}({', '.join(f'{k}={v!r}' for k, v in fields.items())})"
    for name in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(x, name, None)
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert x == y and vars(x) == vars(y)
    with pytest.raises(TypeError):
        cls(**fields, extra=None)
    if cls is not Fsa:  # every Fsa field has a default
        with pytest.raises(TypeError):
            cls(**dict(list(fields.items())[1:]))
    assert pickle.loads(pickle.dumps(x)) == x


def test_records_hold_only_their_fields():
    """No record caches a derived value: a cached_property writes the instance __dict__, which slows every later
    attribute read of that record. Reading every property of a record leaves its attributes as they were."""
    assert {cls for cls, _, _ in RECORDS} == set(_Record.__subclasses__())
    for cls, fields, _ in RECORDS:
        cached = [name for k in cls.__mro__ for name, v in vars(k).items() if isinstance(v, functools.cached_property)]
        assert cached == [], cls
        x = cls(**fields)
        before = dict(vars(x))
        for name in dir(cls):
            if isinstance(getattr(cls, name), property):
                getattr(x, name)
        assert vars(x) == before, cls


def test_record_repr_and_cached_fields():
    a = Fsa(("a",), ("q",), {"q"}, {"q"}, [("q", "a", "q")])
    assert repr(a) == (
        "Fsa(alphabet=('a',), states=('q',), initial=frozenset({'q'}), final=frozenset({'q'}), "
        "transitions=frozenset({('q', 'a', 'q')}))"
    )
    b = Fsa(*(getattr(a, name) for name in Fsa.__match_args__))
    assert b.state_index == {"q": 0}  # a derived attribute is neither a field nor compared
    assert a == b and hash(a) == hash(b) and pickle.loads(pickle.dumps(b)) == a


def test_derived_attributes_are_set_once_and_not_fields():
    a = Fsa.make([("p", "a", "q"), ("q", EPSILON, "p")], ["p"], ["q"])
    for name in ("state_index", "has_epsilon"):
        assert not hasattr(Fsa, name)  # no cached_property, nor any other class attribute: the constructor sets both
    assert (a.state_index, a.has_epsilon) == ({"p": 0, "q": 1}, True)
    b = pickle.loads(pickle.dumps(a))
    assert (b.state_index, b.has_epsilon) == (a.state_index, a.has_epsilon)
    assert a == b and hash(a) == hash((a.alphabet, a.states, a.initial, a.final, a.transitions))
    assert repr(a) == (f"Fsa(alphabet=('a',), states=('p', 'q'), initial=frozenset({{'p'}}), final=frozenset({{'q'}}), "
                       f"transitions={a.transitions!r})")


def test_derived_attributes_match_a_recomputation(random_nfas, unary_nfas, total_nfas, codeterministic_nfas,
                                                  family_nfas):
    corpus = random_nfas + unary_nfas + total_nfas + codeterministic_nfas + family_nfas
    for i, a in enumerate(corpus):
        for x in (a, with_epsilons(a, i)):
            assert x.state_index == {q: k for k, q in enumerate(x.states)}
            assert x.has_epsilon == any(sym == EPSILON for _, sym, _ in x.transitions)


def test_report_tree_writes_the_four_symbol_fields():
    tree = report_to_dict(full_report(gen_moore(3)))
    assert [list(s) for s in tree["per_symbol"]] == [["symbol", "rank", "range_size", "cyclicity"]] * 2


class TestParse:
    def test_smallest_document(self):
        a = parse_fsa("q0 a q1\n@initial q0\n@final q1\n")
        assert a.states == ("q0", "q1")
        assert a.alphabet == ("a",)
        assert a.initial == frozenset({"q0"})
        assert a.final == frozenset({"q1"})
        assert a.transitions == frozenset({("q0", "a", "q1")})

    def test_empty_document_is_an_error(self):
        with pytest.raises(ParseError, match="no states"):
            parse_fsa("")

    def test_comments_and_blanks_ignored(self):
        a = parse_fsa("# header\n\nq0 a q1\n@initial q0\n")
        assert a.n == 2

    def test_epsilon_marker(self):
        a = parse_fsa("q0 <eps> q1\n@initial q0\n@final q1\n")
        assert ("q0", EPSILON, "q1") in a.transitions
        assert a.alphabet == ()

    def test_malformed_line_reports_number(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_fsa("q0 a q1\nq0 a\n")

    def test_duplicate_alphabet_declaration(self):
        with pytest.raises(ParseError, match="duplicate @alphabet"):
            parse_fsa("@alphabet a\n@alphabet b\nq0 a q0\n")

    def test_symbol_outside_pinned_alphabet(self):
        with pytest.raises(ParseError, match="not in declared alphabet"):
            parse_fsa("@alphabet a\nq0 b q0\n")

    @pytest.mark.parametrize(
        "text, line, message",
        [
            ("q0 a q1\nq1 a @x\n", 2, "invalid state name '@x'"),
            ("q0 a q1\n\nq1 b <eps>\n", 3, "invalid state name '<eps>'"),
            ("q0 a q1\n@initial #q\n", 2, "invalid state name '#q'"),
            ("q0 a q0\n@alphabet a <eps>\n", 2, "invalid symbol '<eps>'"),
            ("q0 a q0\n@alphabet b\nq0 a q0\n", 2, "symbol 'a' not in declared alphabet"),
            ("q a q\n@initial q q\n", 2, "@initial takes exactly one state"),
            ("q a q\n@final\n", 2, "@final takes exactly one state"),
            ("q a q\n@alphabet a a\n", 2, "duplicate symbol in @alphabet"),
        ],
    )
    def test_invalid_name_reports_its_line(self, text, line, message):
        with pytest.raises(ParseError, match=f"line {line}: {message}") as info:
            parse_fsa(text)
        assert info.value.line == line

    @pytest.mark.parametrize(
        "text, line, message",
        [
            ("q0 a q1\nq1 a @x\nq1 b q0\n@states q\n", 2, "invalid state name '@x'"),
            ("@final\nq a q\nq b <eps>\n", 1, "@final takes exactly one state"),
            ("<eps> a @x\n", 1, "invalid state name '<eps>'"),
            ("@alphabet a\nq b @x\n", 2, "invalid state name '@x'"),
            ("q a #q\n@initial q q\n", 1, "invalid state name '#q'"),
        ],
        ids=["target-before-directive", "directive-before-target", "source-before-target", "state-before-symbol",
             "target-before-arity"],
    )
    def test_first_fault_is_reported(self, text, line, message):
        with pytest.raises(ParseError, match=f"^line {line}: {message}$") as info:
            parse_fsa(text)
        assert info.value.line == line

    def test_unknown_directive(self):
        with pytest.raises(ParseError, match="unknown directive"):
            parse_fsa("@states q0\n")

    def test_alphabet_line_pins_order(self):
        a = parse_fsa("@alphabet b a\nq0 a q0\nq0 b q0\n@initial q0\n")
        assert a.alphabet == ("b", "a")

    def test_round_trip_moore4(self):
        a = gen_moore(4)
        assert parse_fsa(serialize_fsa(a)) == a


class TestSerialize:
    def test_universal_dfa_is_four_lines(self):
        text = serialize_fsa(gen_universal())
        assert text == "q a q\nq b q\n@initial q\n@final q\n"

    def test_no_transitions_only_marker_lines(self):
        a = Fsa((), ("q0", "q1"), frozenset({"q0"}), frozenset({"q1"}), frozenset())
        assert serialize_fsa(a) == "@initial q0\n@final q1\n"

    def test_stable_across_invocations(self):
        a = random_fsa(3)
        assert serialize_fsa(a) == serialize_fsa(a)

    def test_alphabet_emitted_when_needed(self):
        a = Fsa(("b", "a"), ("q0",), frozenset({"q0"}), frozenset(), frozenset({("q0", "a", "q0")}))
        text = serialize_fsa(a)
        assert text.splitlines()[0] == "@alphabet b a"
        assert parse_fsa(text) == a

    @pytest.mark.parametrize("seed", range(20))
    def test_round_trip_random_up_to_state_order(self, seed):
        a = random_fsa(seed)
        assert fsa_equal_up_to_state_order(parse_fsa(serialize_fsa(a)), a)


class TestSerializeAgainstFormatRules:
    """``serialize_fsa`` against ``oracles.text_by_format_rules``, a writer
    built from README's statement of the format alone."""

    def test_every_corpus_automaton(self, random_nfas, unary_nfas, total_nfas, codeterministic_nfas, family_nfas):
        rng = random.Random(18)
        for a in random_nfas + unary_nfas + total_nfas + codeterministic_nfas + family_nfas:
            eps = (rng.choice(a.states), EPSILON, rng.choice(a.states))
            for b in (a, Fsa(a.alphabet, a.states, a.initial, a.final, a.transitions | {eps})):
                assert serialize_fsa(b) == text_by_format_rules(b)

    @pytest.mark.parametrize(
        "a, text",
        [
            (Fsa(), ""),
            (Fsa.make([("p", "a", "q")], ["p"], ["q"], alphabet=["a", "b"]), "@alphabet a b\np a q\n@initial p\n@final q\n"),
            (Fsa.make([("p", "a", "q"), ("q", "b", "p")], ["p"], ["q"], alphabet=["b", "a"]),
             "@alphabet b a\np a q\nq b p\n@initial p\n@final q\n"),
            (Fsa.make([("p", "a", "q"), ("p", EPSILON, "q"), ("p", "1", "q")], ["p"], ["q"], alphabet=["1", "a"]),
             "p 1 q\np <eps> q\np a q\n@initial p\n@final q\n"),
        ],
        ids=["empty", "unused-symbol", "pinned-b-a", "symbol-order"],
    )
    def test_hand_cases(self, a, text):
        assert serialize_fsa(a) == text_by_format_rules(a) == text


class TestFirstUseOrder:
    """States and symbols are indexed in the order they are first used."""

    def test_make_states(self):
        a = Fsa.make(
            [("p", "a", "q"), ("r", "b", "p")], initial=["i", "p"], final=["f", "q"], states=["s", "q"]
        )
        assert a.states == ("s", "q", "p", "r", "i", "f")

    def test_make_symbols(self):
        trans = [("p", "c", "p"), ("p", EPSILON, "p"), ("p", "a", "p"), ("p", "d", "p"), ("p", "c", "p")]
        assert Fsa.make(trans, alphabet=["b", "a"]).alphabet == ("b", "a", "c", "d")
        assert Fsa.make(trans).alphabet == ("c", "a", "d")

    @pytest.mark.parametrize("alphabet", [("a", "a"), ("a", "b", "a")])
    def test_make_refuses_duplicate_alphabet(self, alphabet):
        with pytest.raises(ValueError, match="duplicate symbol"):
            Fsa.make([("p", "a", "p")], alphabet=alphabet)

    @pytest.mark.parametrize("states", [("p", "p"), ("p", "q", "p")])
    def test_make_refuses_duplicate_states(self, states):
        with pytest.raises(ValueError, match="duplicate state name"):
            Fsa.make([("p", "a", "q")], states=states)

    def test_make_declares_listed_state_once(self):
        a = Fsa.make([("q", "a", "p"), ("p", "a", "r")], initial=["r"], final=["q"], states=["p", "q"])
        assert a.states == ("p", "q", "r")

    def test_parse_marker_before_transitions(self):
        a = parse_fsa("@final f\n@initial i\np b q\nq <eps> i\nq a f\n")
        assert a.states == ("f", "i", "p", "q")
        assert a.alphabet == ("b", "a")

    def test_parse_pinned_alphabet_keeps_its_order(self):
        assert parse_fsa("p b q\n@alphabet c a b\nq a p\n").alphabet == ("c", "a", "b")


class TestRemoveEpsilon:
    def test_identity_on_eps_free(self):
        a = random_fsa(11)
        assert remove_epsilon(a) == a

    def test_forced_bridge(self):
        a = Fsa.make(
            [("q0", EPSILON, "q1"), ("q1", "a", "q2")],
            ["q0"],
            ["q2"],
            alphabet=["a"],
        )
        b = remove_epsilon(a)
        assert ("q0", "a", "q2") in b.transitions
        assert not b.has_epsilon
        assert b.states == a.states

    @pytest.mark.parametrize("seed", range(25))
    def test_language_preserved(self, seed):
        a = with_epsilons(random_fsa(seed), seed)
        b = remove_epsilon(a)
        for w in words_upto(a.alphabet, 6):
            assert accepts_by_path_search(a, w) == accepts_by_path_search(b, w)

    @pytest.mark.parametrize("seed", range(10))
    def test_agrees_with_library_accepts(self, seed):
        a = with_epsilons(random_fsa(seed), seed + 99)
        for w in words_upto(a.alphabet, 6):
            assert accepts(a, w) == accepts(remove_epsilon(a), w)


class TestReverse:
    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_involution(self, seed):
        a = random_fsa(seed)
        assert reverse(reverse(a)) == a

    def test_universal_is_its_own_reverse(self):
        u = gen_universal()
        assert reverse(u) == u

    def test_moore3(self):
        r = reverse(gen_moore(3))
        assert r.initial == frozenset({"q3"})
        assert r.final == frozenset({"q1"})
        assert ("q2", "a", "q1") in r.transitions
        assert ("q1", "a", "q3") in r.transitions

    @pytest.mark.parametrize("seed", range(10))
    def test_reversed_language(self, seed):
        a = random_fsa(seed, n=4)
        r = reverse(a)
        for w in words_upto(a.alphabet, 6):
            assert accepts(r, w) == accepts(a, tuple(reversed(w)))


class TestTrim:
    def test_already_trim_is_identity(self):
        a = gen_moore(3)
        assert is_trim(a)
        assert trim(a) == a

    def test_no_finals_trims_to_empty(self):
        a = Fsa.make([("q0", "a", "q1")], ["q0"], [])
        assert trim(a).states == ()

    def test_unreachable_state_removed(self):
        a = Fsa.make([("q0", "a", "q1")], ["q0"], ["q1"], states=["q0", "q1", "q2"], alphabet=["a"])
        t = trim(a)
        assert t.states == ("q0", "q1")

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_idempotent(self, seed):
        a = random_fsa(seed)
        assert trim(trim(a)) == trim(a)


class TestDeterminism:
    def test_universal_is_deterministic(self):
        assert is_deterministic(gen_universal())

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_moore_is_not(self, n):
        assert not is_deterministic(gen_moore(n))

    def test_partial_automaton_is_not_deterministic(self):
        a = Fsa.make([("q0", "a", "q1")], ["q0"], ["q1"], alphabet=["a", "b"])
        assert not is_deterministic(a)

    def test_total_with_parallel_edge_is_not(self):
        # every pair has a successor, but (u0, a) has two: only the count tells
        u2 = two_state_universal()
        a = Fsa(u2.alphabet, u2.states, u2.initial, u2.final, u2.transitions | {("u0", "a", "u0")})
        assert is_total(a)
        assert not is_deterministic(a)

    def test_epsilon_edge_is_not(self):
        u2 = two_state_universal()
        a = Fsa(u2.alphabet, u2.states, u2.initial, u2.final, u2.transitions | {("u0", EPSILON, "u1")})
        assert not is_deterministic(a)

    def test_two_initial_states_is_not(self):
        u2 = two_state_universal()
        assert not is_deterministic(Fsa(u2.alphabet, u2.states, frozenset(u2.states), u2.final, u2.transitions))

    def test_zero_states_is_not(self):
        assert not is_deterministic(Fsa())
        assert not is_deterministic(Fsa(alphabet=("a",)))

    def test_matches_successor_count(self, random_nfas, unary_nfas, total_nfas, codeterministic_nfas, family_nfas):
        corpus = random_nfas + unary_nfas + total_nfas + codeterministic_nfas + family_nfas
        dfas = [subset_to_dfa(subset_construct(remove_epsilon(a))) for a in corpus]
        mismatches = [a for a in corpus + dfas if is_deterministic(a) != deterministic_by_successor_count(a)]
        assert mismatches == []
        assert all(map(is_deterministic, dfas))
        assert sum(map(is_deterministic, corpus)) > 0

    def test_codeterministic_examples(self):
        assert is_codeterministic(gen_universal())
        assert not is_codeterministic(gen_moore(3))


class TestCompletion:
    def test_universal_unchanged(self):
        u = gen_universal()
        assert complete_with_dead_state(u) is u

    def test_single_state_no_transitions(self):
        a = Fsa(("a", "b"), ("q0",), frozenset({"q0"}), frozenset(), frozenset())
        c = complete_with_dead_state(a)
        assert c.n == 2
        assert len(c.transitions) == 4
        assert is_total(c)

    def test_five_state_fragment_gets_sink(self):
        # two branches from q1; q2, q3 are missing b and q5 is missing both symbols
        a = Fsa.make(
            [
                ("q1", "a", "q1"),
                ("q1", "b", "q1"),
                ("q1", "a", "q2"),
                ("q1", "b", "q5"),
                ("q2", "a", "q3"),
                ("q3", "a", "q4"),
                ("q4", "a", "q4"),
                ("q4", "b", "q4"),
            ],
            ["q1"],
            ["q4"],
            states=["q1", "q2", "q3", "q4", "q5"],
        )
        c = complete_with_dead_state(a)
        sink = c.states[-1]
        added = c.transitions - a.transitions
        assert c.n == 6
        assert added == frozenset(
            {
                ("q2", "b", sink),
                ("q3", "b", sink),
                ("q5", "a", sink),
                ("q5", "b", sink),
                (sink, "a", sink),
                (sink, "b", sink),
            }
        )
        assert sink not in c.final

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_idempotent(self, seed):
        a = random_fsa(seed, density=0.15)
        c = complete_with_dead_state(a)
        assert complete_with_dead_state(c) == c

    @pytest.mark.parametrize("taken, name", [((), "q"), (("q",), "q2"), (("q", "q2"), "q3")])
    def test_fresh_state_name_counts_past_taken(self, taken, name):
        assert fresh_state_name("q", taken) == name

    def test_language_unchanged(self):
        a = random_fsa(17, density=0.2)
        c = complete_with_dead_state(a)
        for w in words_upto(a.alphabet, 5):
            assert accepts(a, w) == accepts(c, w)


class TestAccepts:
    def test_universal_accepts_spot_check(self):
        assert accepts(gen_universal(), ("a", "b", "b", "a"))

    def test_moore3_rejects_b(self):
        assert accepts(gen_moore(3), ("b",)) is False

    def test_no_initial_states_rejects_everything(self):
        a = Fsa.make([("q0", "a", "q0")], [], ["q0"])
        for w in words_upto(("a",), 4):
            assert not accepts(a, w)

    def test_unknown_symbol_raises(self):
        with pytest.raises(ValueError):
            accepts(gen_universal(), ("z",))

    @pytest.mark.parametrize("seed", range(15))
    def test_matches_path_search(self, seed):
        a = random_fsa(seed, n=4)
        for w in words_upto(a.alphabet, 5):
            assert accepts(a, w) == accepts_by_path_search(a, w)
