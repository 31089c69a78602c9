"""Each command elaborates each term and draws each form once, and rule
patterns compile once.

`to_netlist` and `semantics_table` are wrapped with a counter at every
place a `cpbs.*` module holds them, so a stage that rebuilds a netlist
or a table it already has shows up as an extra call.  Every table the
library makes is of a netlist that the caller elaborated in plain
sight.  Rule sides are compiled once per (rule, direction) and shared,
so they must never change under matching or application; staircase
walks are likewise built once per staircase.
"""

from __future__ import annotations

import sys

import pytest

import cpbs.netlist
import cpbs.normal_form
import cpbs.pgt
import cpbs.rewrite
import cpbs.semantics
import cpbs.stairs
import cpbs.terms
from cpbs import gallery
from cpbs.cli import main
from cpbs.hardness import corpus, diagram_from_decomposition, max_ecd_bruteforce
from cpbs.netlist import Netlist, to_netlist
from cpbs.normal_form import normalize
from cpbs.pgt import is_query_pbs_optimal_single
from cpbs.query_opt import (
    is_query_optimal,
    optimize_queries,
    optimize_queries_traced,
    query_profile,
)
from cpbs.randgen import random_diagram
from cpbs.rewrite import _CHAINS, _compile, apply, check_soundness, find_matches, replay_derivation
from cpbs.rules import ALL_RULE_IDS
from cpbs.textform import print_term

PATTERN_RULES = [r for r in ALL_RULE_IDS if not r.startswith("STRUCT")]


def _wrap(monkeypatch, original, wrapper) -> None:
    """Puts the wrapper in place of a `cpbs` function at every `cpbs.*` module that holds it."""
    for name, module in list(sys.modules.items()):
        if name == "cpbs" or name.startswith("cpbs."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, wrapper)


def _count_calls(monkeypatch, original) -> list[int]:
    """Wraps a `cpbs` function at every `cpbs.*` module that holds it,
    and returns the one-element list the wrapper counts its calls in."""
    calls = [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    _wrap(monkeypatch, original, counted)
    return calls


@pytest.fixture
def netlist_calls(monkeypatch):
    """Counts `to_netlist` calls made through any `cpbs.*` module."""
    return _count_calls(monkeypatch, cpbs.netlist.to_netlist)


@pytest.fixture
def table_calls(monkeypatch):
    """Counts `semantics_table` calls made through any `cpbs.*` module."""
    return _count_calls(monkeypatch, cpbs.semantics.semantics_table)


@pytest.fixture
def typing_calls(monkeypatch):
    """Counts `type_of` calls made through any `cpbs.*` module."""
    return _count_calls(monkeypatch, cpbs.terms.type_of)


COMMANDS = (
    "check", "table", "normalize", "equal", "opt-queries",
    "opt-pbs", "bounds", "simulate", "export-dot", "reduce-ecd",
)
DIAGRAMS = ("quantum_switch", "three_query_circuit")


def _argv(command: str, diagram: str, tmp_path) -> list[str]:
    """A command's arguments on the gallery diagram: `equal` compares it
    with itself, `simulate` assigns a 1x1 matrix to each letter, and
    `reduce-ecd` reads a triangle instead."""
    path = tmp_path / f"{diagram}.cpbs"
    path.write_text(print_term(getattr(gallery, diagram)()))
    if command == "equal":
        return [command, str(path), str(path)]
    if command == "simulate":
        assign = tmp_path / "assign.tsv"
        assign.write_text("".join(f"{u}\t1,0\n" for u in ("U", "V", "W")))
        return [command, str(path), "--assign", str(assign)]
    if command == "reduce-ecd":
        graph = tmp_path / "triangle.graph"
        graph.write_text("A B\nB C\nC A\n")
        return [command, str(graph)]
    return [command, str(path)]


# (diagram, command) -> to_netlist calls once the rule sides are compiled
# and the staircases walked.
# quantum_switch is query-optimal; three_query_circuit queries U twice
# where once suffices.  check only types its input, export-dot draws its
# netlist, and reduce-ecd builds a term.  normalize elaborates its input
# and the form's table check; equal elaborates each side once.
# opt-queries on three_query_circuit: the input, the
# normal form's table check, whose netlist the rewrites then work on, and
# the output's certificate table; the rewrites reuse the compiled
# replacement sides.  opt-pbs draws no output: the PGT step takes the
# rewritten netlist, or the input's own if it is already optimal, and
# adds the stair form's table check and the PGT form's table check.
ELABORATIONS = {
    **{(d, "check"): 0 for d in DIAGRAMS},
    **{(d, "table"): 1 for d in DIAGRAMS},
    **{(d, "normalize"): 2 for d in DIAGRAMS},
    **{(d, "equal"): 2 for d in DIAGRAMS},
    ("quantum_switch", "opt-queries"): 1,
    ("quantum_switch", "opt-pbs"): 3,
    ("quantum_switch", "bounds"): 1,
    ("three_query_circuit", "opt-queries"): 3,
    ("three_query_circuit", "opt-pbs"): 4,
    ("three_query_circuit", "bounds"): 1,
    **{(d, "simulate"): 1 for d in DIAGRAMS},
    **{(d, "export-dot"): 1 for d in DIAGRAMS},
    **{(d, "reduce-ecd"): 0 for d in DIAGRAMS},
}

# (diagram, command) -> semantics_table calls on the same second run.
# table, simulate and equal table each netlist they build; export-dot
# tables nothing.  normalize tables its input and the form's check.
# opt-queries: the input's table and, when it is not yet optimal, the
# normal form's check and the output's certificate.  opt-pbs tables the
# input and, when it is not yet optimal, the normal form's check; then
# the stair form's check and the PGT form's certificate against the
# input's table, which stands for the whole chain.  bounds tables its
# input once, for both the query bounds and the PBS bound.
TABLES = {
    **{(d, "check"): 0 for d in DIAGRAMS},
    **{(d, "table"): 1 for d in DIAGRAMS},
    **{(d, "normalize"): 2 for d in DIAGRAMS},
    **{(d, "equal"): 2 for d in DIAGRAMS},
    ("quantum_switch", "opt-queries"): 1,
    ("quantum_switch", "opt-pbs"): 3,
    ("quantum_switch", "bounds"): 1,
    ("three_query_circuit", "opt-queries"): 3,
    ("three_query_circuit", "opt-pbs"): 4,
    ("three_query_circuit", "bounds"): 1,
    **{(d, "simulate"): 1 for d in DIAGRAMS},
    **{(d, "export-dot"): 0 for d in DIAGRAMS},
    **{(d, "reduce-ecd"): 0 for d in DIAGRAMS},
}


# (diagram, command) -> drawings made: the distinct terms that each form's
# as_term, and to_term, hand out.  A form draws on its first as_term call
# and returns that term after, so the table checks and the printing share
# one drawing.  normalize draws the normal form once, for its table check
# and its output.  opt-queries on three_query_circuit draws the optimiser's
# normal form and its output; quantum_switch is already optimal.  opt-pbs
# draws the stair core once, for the stair form's check, and the PGT form
# once around it, for the PGT certificate and the output.
DRAWINGS = {
    **{(d, "normalize"): {"NormalForm": 1} for d in DIAGRAMS},
    ("quantum_switch", "opt-queries"): {},
    ("three_query_circuit", "opt-queries"): {"NormalForm": 1, "to_term": 1},
    ("quantum_switch", "opt-pbs"): {"StairForm": 1, "PgtForm": 1},
    ("three_query_circuit", "opt-pbs"): {"NormalForm": 1, "StairForm": 1, "PgtForm": 1},
}
FORMS = {
    "NormalForm": cpbs.normal_form.NormalForm,
    "StairForm": cpbs.stairs.StairForm,
    "PgtForm": cpbs.pgt.PgtForm,
}


@pytest.mark.parametrize("diagram,command", sorted(DRAWINGS))
def test_command_drawings(diagram, command, monkeypatch, tmp_path, capsys):
    drawn: dict[str, list] = {name: [] for name in (*FORMS, "to_term")}

    def kept(original, terms):
        def drawing(*args):
            terms.append(original(*args))  # kept alive, so no two share an id
            return terms[-1]

        return drawing

    for name, form in FORMS.items():
        monkeypatch.setattr(form, "as_term", kept(form.as_term, drawn[name]))
    _wrap(monkeypatch, cpbs.netlist.to_term, kept(cpbs.netlist.to_term, drawn["to_term"]))
    assert main(_argv(command, diagram, tmp_path)) == 0
    capsys.readouterr()
    counts = {name: len({id(t) for t in terms}) for name, terms in drawn.items()}
    assert {name: k for name, k in counts.items() if k} == DRAWINGS[(diagram, command)]


@pytest.mark.parametrize("diagram,command", sorted(ELABORATIONS))
def test_command_elaborations(diagram, command, netlist_calls, table_calls, tmp_path, capsys):
    argv = _argv(command, diagram, tmp_path)
    assert main(argv) == 0  # compiles the patterns, walks the staircases
    first = capsys.readouterr().out
    netlist_calls[0] = table_calls[0] = 0
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    assert netlist_calls[0] == ELABORATIONS[(diagram, command)]
    assert table_calls[0] == TABLES[(diagram, command)]


@pytest.mark.parametrize("diagram", DIAGRAMS)
def test_opt_pbs_draws_no_term(diagram, monkeypatch, tmp_path, capsys):
    # the optimiser hands its netlist to the PGT step; opt-queries draws it
    drawings = _count_calls(monkeypatch, cpbs.netlist.to_term)
    assert main(_argv("opt-pbs", diagram, tmp_path)) == 0
    assert drawings[0] == 0
    assert main(_argv("opt-queries", diagram, tmp_path)) == 0
    assert drawings[0] == (diagram == "three_query_circuit")
    capsys.readouterr()


def test_only_the_traced_optimiser_hashes_its_sites(monkeypatch, tmp_path, capsys):
    # the rewrite loop keeps each matched instance; a trace hashes them all at the end
    hashes = [0]
    site_hash = cpbs.rewrite.RuleInstance.site_hash

    def counted(inst):
        hashes[0] += 1
        return site_hash.fget(inst)

    monkeypatch.setattr(cpbs.rewrite.RuleInstance, "site_hash", property(counted))
    d = gallery.three_query_circuit()
    optimize_queries(d)
    for command in ("opt-queries", "opt-pbs"):
        assert main(_argv(command, "three_query_circuit", tmp_path)) == 0
    capsys.readouterr()
    assert hashes[0] == 0
    steps = optimize_queries_traced(d)[1]
    assert hashes[0] == len(steps) > 1


@pytest.mark.parametrize("diagram", DIAGRAMS)
def test_equal_neither_types_nor_normalises(diagram, typing_calls, monkeypatch, tmp_path, capsys):
    # the boundary types are read off the two netlists, the tables decide
    forms = _count_calls(monkeypatch, cpbs.normal_form.synthesize_nf)
    assert main(_argv("equal", diagram, tmp_path)) == 0
    assert capsys.readouterr().out == "equivalent\n"
    assert typing_calls[0] == forms[0] == 0


def test_check_soundness_does_not_type_the_rule_sides(typing_calls, table_calls):
    # tables_equal compares the boundary types of the two sides' tables
    assert check_soundness("AX2")
    assert table_calls[0] > 0
    assert typing_calls[0] == 0


@pytest.mark.parametrize("rule_id", ALL_RULE_IDS)
def test_check_soundness_tables_each_rule_side_once(rule_id, netlist_calls, table_calls):
    # the sides are tabled as they stand, word variables and all
    assert check_soundness(rule_id)
    assert netlist_calls[0] == table_calls[0] == 2


def test_single_query_certificate_elaborates_its_input_once(netlist_calls):
    d = gallery.quantum_switch()
    assert is_query_pbs_optimal_single(d)  # walks the staircases
    netlist_calls[0] = 0
    assert is_query_pbs_optimal_single(d)
    # the input, the stair form's table check and the PGT form's table check
    assert netlist_calls[0] == 3


def test_the_library_tables_only_netlists(monkeypatch, tmp_path, capsys):
    # every elaboration happens where a term is known: no library call hands
    # semantics_table a term to elaborate out of sight
    original = cpbs.semantics.semantics_table
    args: list = []

    def recorded(n):
        args.append(n)
        return original(n)

    _wrap(monkeypatch, original, recorded)
    for diagram in DIAGRAMS:
        for command in COMMANDS:
            assert main(_argv(command, diagram, tmp_path)) == 0
    capsys.readouterr()
    for rule_id in ALL_RULE_IDS:
        assert check_soundness(rule_id)
    for target in _CHAINS:
        replay_derivation(target)
    for g in corpus().values():
        diagram_from_decomposition(g, max_ecd_bruteforce(g))
    assert len(args) > 100  # 119 in suite order, 120 alone: check_soundness tables 82 rule sides
    assert all(type(n) is Netlist for n in args), {type(n).__name__ for n in args}


def test_the_query_optimiser_neither_searches_nor_copies_a_netlist(monkeypatch):
    # each step matches on the gates it rewrites and splices the one netlist in place
    searches = _count_calls(monkeypatch, cpbs.rewrite.find_matches)
    copies = _count_calls(monkeypatch, cpbs.rewrite.apply)
    steps = 0
    for seed in range(40):
        steps += len(optimize_queries_traced(random_diagram(seed, max_generators=24, max_wires=4))[1])
    assert steps > 100, steps
    assert searches[0] == copies[0] == 0


def test_compile_runs_once_per_rule_and_direction(netlist_calls):
    _compile.cache_clear()
    n = to_netlist(gallery.three_query_circuit())
    netlist_calls[0] = 0
    sites = (("DER18", "L2R"), ("DER18", "R2L"), ("AX2", "R2L"))
    for site in sites:
        _compile(*site)
    assert netlist_calls[0] == 6  # one netlist per side of each (rule, direction)
    applied = 0
    for _ in range(3):
        for site in sites:
            matches = find_matches(n, *site)
            if matches:
                apply(n, matches[0])
                applied += 1
    assert applied >= 3
    assert _compile.cache_info().misses == 3
    assert netlist_calls[0] == 6  # applying a rule elaborates nothing


def test_find_matches_leaves_rule_sides_alone(monkeypatch):
    # whether a direction invents words is decided when its pattern compiles
    sites = [(r, dr) for r in ALL_RULE_IDS for dr in ("L2R", "R2L")]
    for site in sites:
        _compile(*site)
    walked = []
    original = cpbs.rewrite.word_vars
    monkeypatch.setattr(cpbs.rewrite, "word_vars", lambda t: walked.append(t) or original(t))
    n = to_netlist(gallery.three_query_circuit())
    assert sum(len(find_matches(n, *site)) for site in sites) > 0
    assert walked == []


def test_netlist_and_term_agree():
    for seed in range(40):
        d = random_diagram(seed)
        n = to_netlist(d)
        assert query_profile(n) == query_profile(d)
        assert is_query_optimal(n) == is_query_optimal(d)
        assert normalize(n) == normalize(d)


def test_cached_patterns_are_never_mutated():
    patterns = {(r, dr): _compile(r, dr) for r in PATTERN_RULES for dr in ("L2R", "R2L")}
    before = {key: repr(p) for key, p in patterns.items()}
    for target in _CHAINS:
        replay_derivation(target)
    for name in ("quantum_switch", "three_query_circuit", "worked_example", "repeated_switch"):
        optimize_queries(getattr(gallery, name)())
    for key, p in patterns.items():
        assert _compile(*key) is p
        assert repr(p) == before[key], key
