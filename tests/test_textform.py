"""Text syntax: grammar coverage, round trips, error locations."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import cpbs
from cpbs.netlist import netlists_isomorphic, to_netlist
from cpbs.randgen import random_diagram
from cpbs.terms import (
    Colour,
    Empty,
    Gen,
    Par,
    Seq,
    Trace,
    gate_h,
    gate_v,
    ident,
    merge_vh,
    par,
    seq,
    split_vh,
    swap,
    type_of,
)
from cpbs.textform import parse, print_term

T, V, H = Colour.T, Colour.V, Colour.H

GEN_TEXTS = [
    "id[T]",
    "id[V]",
    "id[H]",
    "swap[T,V]",
    "swap[H,H]",
    "perm[T,V,H;2,0,1]",
    "neg",
    "neg[VH]",
    "neg[HV]",
    "gate[U]",
    "gate[U.V]",
    "gate[Phase_2,V]",
    "gate[U,H]",
    "pbs",
    "pbs[TV.VT]",
    "pbs[VT.TV]",
    "pbs[HT.HT]",
    "pbs[TH.TH]",
    "split",
    "split[HV]",
    "merge",
    "merge[HV]",
]


class TestParse:
    def test_half_switch_shape(self):
        d = parse("split ; (gate[U,V] | id[H]) ; merge")
        want = seq(split_vh(), par(gate_v("U"), Gen("id", colours=(H,))), merge_vh())
        assert d == want
        assert type_of(d) == ((T,), (T,))

    def test_trace(self):
        assert parse("tr[T](pbs)") == Trace(T, Gen("pbs4"))

    def test_dotted_word_is_trajectory_order(self):
        assert parse("gate[U.V]").word == ("U", "V")

    def test_multicharacter_letters(self):
        assert parse("gate[V1.U_2,H]") == gate_h(("V1", "U_2"))

    def test_semicolon_binds_looser_than_bar(self):
        d = parse("split ; gate[U,V] | id[H] ; merge")
        assert isinstance(d, Seq)
        assert isinstance(d.first, Seq)
        assert isinstance(d.first.second, Par)

    def test_comments_and_newlines(self):
        d = parse("# heading\nsplit ;  # split first\n gate[U,V] | id[H]\n; merge\n")
        assert type_of(d) == ((T,), (T,))

    def test_empty_source_is_the_empty_diagram(self):
        assert parse("") == Empty()
        assert parse("  \n # only a comment\n") == Empty()

    @pytest.mark.parametrize("text", GEN_TEXTS)
    def test_generator_round_trip(self, text):
        g = parse(text)
        assert isinstance(g, Gen)
        assert parse(print_term(g)) == g

    def test_each_spelling_is_built_once_per_call(self):
        d = parse("id[T] | id[T]")
        assert d.top is d.bottom
        d = parse("pbs ; gate[U] | gate[U] ; pbs")
        assert d.first.first is d.second
        assert d.first.second.top is d.first.second.bottom
        assert parse("pbs") is not parse("pbs")  # the cache lives for one call

    def test_wiring_spellings_are_the_shared_leaves(self):
        # id and swap are the objects ident and swap hand out, in every call
        for c in (T, V, H):
            assert parse(f"id[{c.value}]") is ident(c)
            for c2 in (T, V, H):
                assert parse(f"swap[{c.value},{c2.value}]") is swap(c, c2)
        d = parse("id[V] | swap[T,H] ; id[V] | swap[H,T]")
        assert d.first.top is d.second.top is ident(V)
        assert d.first.bottom is swap(T, H) and d.second.bottom is swap(H, T)

    def test_gate_black_suffix_is_optional(self):
        assert parse("gate[U,T]") == parse("gate[U]")


class TestErrors:
    @pytest.mark.parametrize(
        "src, fragment",
        [
            ("wat", "unknown generator"),
            ("pbs[AB.BA]", "splitter signature"),
            ("split[VH]", "split variant"),
            ("neg[TT]", "negation"),
            ("id", "id needs a colour"),
            ("id[Q]", "expected a colour"),
            ("swap[T]", "two colours"),
            ("perm[T,V;0,0]", "not a permutation"),
            ("perm[T,V;1]", "2 colours but 1 slots"),
            ("perm[T,V;a,0]", "slots must be numbers"),
            ("perm[T,V]", "perm needs colours and slots"),
            ("perm[X;0]", "expected a colour"),
            ("gate", "gate needs a word"),
            ("gate[U,Q]", "bad gate colour"),
            ("gate[U,]", "line 1 col 1: bad gate colour ''"),
            ("gate[U..V]", "bad oracle letter"),
            ("(pbs", r"expected '\)'"),
            ("pbs |", "expected a diagram"),
            ("pbs extra", "trailing input"),
            ("tr(pbs)", "tr needs a colour"),
            ("tr[X](pbs)", "expected a colour"),
            ("pbs )", "trailing input"),
        ],
    )
    def test_syntax_errors(self, src, fragment):
        with pytest.raises(SyntaxError, match=fragment):
            parse(src)

    def test_location_in_message(self):
        with pytest.raises(SyntaxError, match=r"line 2 col 9"):
            parse("pbs ;\n  pbs ; wat")

    def test_seq_type_error_points_at_operator(self):
        with pytest.raises(TypeError, match=r"line 1 col 7: cannot compose \(V,H\) into \(T\)"):
            parse("split ; split")

    def test_trace_type_error(self):
        with pytest.raises(TypeError, match=r"tr\[V\] needs V last"):
            parse("tr[V](pbs)")

    # Multi-line sources with comments (holding tokens of their own), tabs
    # and repeated spellings; the messages, locations included, are exact.
    @pytest.mark.parametrize(
        "src, error, message",
        [
            ("# header (\npbs ;\n\tpbs | wat\n", SyntaxError,
             "line 3 col 8: unknown generator 'wat'"),
            ("pbs ;  # tr[T](\n  tr[X](pbs)", SyntaxError,
             "line 2 col 3: expected a colour T, V or H, got 'X'"),
            ("pbs ;\n# ( pbs\n\ttr[T] pbs", SyntaxError,
             "line 3 col 8: expected '(', got 'pbs'"),
            ("(pbs ;\n\tpbs pbs)", SyntaxError,
             "line 2 col 6: expected ')', got 'pbs'"),
            ("(pbs ;\n\tpbs\n# )\n", SyntaxError, "end of input: expected ')'"),
            ("pbs\n\t# pbs ;\n  pbs", SyntaxError, "line 3 col 3: trailing input 'pbs'"),
            ("pbs ;\r\n  pbs ; wat", SyntaxError, "line 2 col 9: unknown generator 'wat'"),
            ("wat |\n wat", SyntaxError, "line 1 col 1: unknown generator 'wat'"),
            ("id[T] | id[T]\n; id[T] | id[T]\n; id[T] | id[T] id[T]", SyntaxError,
             "line 3 col 17: trailing input 'id[T]'"),
            ("split ;\n  merge ;\n\t# split ;\n\tsplit ; split", TypeError,
             "line 4 col 8: cannot compose (V,H) into (T)"),
            ("pbs ;\n  # tr[T](\n\ttr[V](pbs)", TypeError,
             "line 3 col 2: tr[V] needs V last on both sides, got (T,T) -> (T,T)"),
            ("@", SyntaxError, "line 1 col 1: unexpected '@'"),
        ],
        ids=[
            "unknown-generator", "bad-trace-colour", "trace-without-bracket", "missing-close",
            "missing-close-at-end", "trailing-input", "crlf", "first-of-repeated-spelling",
            "after-repeated-spelling", "seq-type-error", "trace-type-error", "stray-character",
        ],
    )
    def test_exact_location_after_the_first_line(self, src, error, message):
        with pytest.raises(error) as info:
            parse(src)
        assert type(info.value) is error
        assert str(info.value) == message


class TestPrint:
    def test_bare_names_for_default_variants(self):
        assert print_term(parse("split ; merge")) == "split ; merge"
        assert print_term(Gen("pbs4")) == "pbs"
        assert print_term(Gen("split_hv")) == "split[HV]"

    def test_parenthesises_seq_under_par(self):
        d = par(seq(Gen("neg_t"), Gen("neg_t")), Gen("id", colours=(T,)))
        text = print_term(d)
        assert text == "(neg ; neg) | id[T]"
        assert parse(text) == d

    def test_trace_text(self):
        assert print_term(Trace(T, Gen("pbs4"))) == "tr[T](pbs)"

    def test_empty_prints_empty(self):
        assert print_term(Empty()) == ""

    def test_a_bare_term_raises_type_error(self):
        # run apart, with a deadline and a memory cap: a printer that loops on
        # a term it cannot print fails the test instead of eating the machine
        script = (
            "import resource\n"
            "from cpbs.terms import Par, Term, pbs4\n"
            "from cpbs.textform import print_term\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 29, 1 << 29))\n"
            "for d in (Term(), Par(pbs4(), Term()), 3):\n"
            "    try:\n"
            "        print_term(d)\n"
            "    except TypeError as e:\n"
            "        print(e)\n"
        )
        src = str(Path(cpbs.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        out = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=20,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.splitlines() == [
            "not a diagram term: Term", "not a diagram term: Term", "not a diagram term: int",
        ]

    def test_gate_colours(self):
        assert print_term(gate_v("U")) == "gate[U,V]"
        assert print_term(gate_h(("A", "B"))) == "gate[A.B,H]"

    @pytest.mark.parametrize("g, letter", [
        (Gen("gate_v", ("U", "V.W")), "'V.W'"),  # would read back as three letters
        (Gen("gate_t", ("a b",)), "'a b'"),  # would not parse
    ])
    def test_gate_letters_that_would_not_read_back_are_refused(self, g, letter):
        with pytest.raises(ValueError, match=letter):
            print_term(g)

    def test_gate_letters_that_are_not_strings_stay_type_errors(self):
        with pytest.raises(TypeError):
            print_term(Gen("gate_t", (1,)))

    @pytest.mark.parametrize("seed", range(150))
    def test_random_round_trip(self, seed):
        d = random_diagram(seed)
        d2 = parse(print_term(d))
        assert netlists_isomorphic(to_netlist(d), to_netlist(d2))
