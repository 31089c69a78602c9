"""Stair synthesis and the PBS lower bound."""

import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import cpbs
from cpbs import stairs
from cpbs.errors import HasGates, NotBijective
from cpbs.netlist import netlists_isomorphic, to_netlist
from cpbs.normal_form import NfLine, NormalForm
from cpbs.randgen import random_diagram
from cpbs.semantics import SemanticsTable, semantics_table, tables_equal
from cpbs.stairs import (
    PartitionAnalysis,
    Staircase,
    StairForm,
    partition_analysis,
    pbs_lower_bound,
    synthesize_stair_form,
)
from cpbs.terms import (
    Colour,
    Empty,
    Trace,
    count_neg,
    count_pbs,
    gate_t,
    ident,
    identity_of,
    merge_hv,
    merge_vh,
    neg_t,
    neg_vh,
    par,
    pbs4,
    seq,
    split_vh,
    swap,
)
from cpbs.textform import parse, print_term

T, V, H = Colour.T, Colour.V, Colour.H


def entries(t):
    return {cfg: out for cfg, (out, _) in t.entries.items()}


class TestStaircaseTables:
    def test_black_ladder_rotates_h_and_fixes_v(self):
        t = semantics_table(Staircase("black_ladder", 2).as_term())
        assert entries(t) == {
            (V, 0): (V, 0), (V, 1): (V, 1), (V, 2): (V, 2),
            (H, 0): (H, 2), (H, 1): (H, 0), (H, 2): (H, 1),
        }

    def test_red_ladder_shifts_h_down(self):
        sc = Staircase("red_ladder", 2)
        assert sc.in_type == (T, T, V)
        assert sc.out_type == (V, T, T)
        t = semantics_table(sc.as_term())
        assert entries(t) == {
            (V, 0): (V, 0), (V, 1): (V, 1), (V, 2): (V, 2),
            (H, 0): (H, 1), (H, 1): (H, 2),
        }

    def test_blue_ladder_rotates_through_the_blue_wire(self):
        sc = Staircase("blue_ladder", 2)
        assert sc.in_type == sc.out_type == (T, T, H)
        t = semantics_table(sc.as_term())
        assert entries(t) == {
            (V, 0): (V, 0), (V, 1): (V, 1),
            (H, 0): (H, 1), (H, 1): (H, 2), (H, 2): (H, 0),
        }

    def test_red_merge_funnels_both_colours_into_slot_zero(self):
        sc = Staircase("red_merge", 2)
        assert sc.in_type == (H, T, V)
        assert sc.out_type == (T, T)
        t = semantics_table(sc.as_term())
        assert entries(t) == {
            (H, 0): (H, 0), (V, 1): (V, 0), (H, 1): (H, 1), (V, 2): (V, 1),
        }

    def test_red_merge_inverse_mirrors_red_merge(self):
        sc = Staircase("red_merge_inverse", 2)
        assert sc.in_type == (T, T)
        assert sc.out_type == (H, T, V)
        t = semantics_table(sc.as_term())
        assert entries(t) == {
            (V, 0): (V, 1), (H, 0): (H, 0), (V, 1): (V, 2), (H, 1): (H, 1),
        }

    def test_degenerate_staircases_are_bare_wires(self):
        assert count_pbs(Staircase("black_ladder", 0).as_term()) == 0
        assert count_pbs(Staircase("red_ladder", 0).as_term()) == 0
        assert tables_equal(
            semantics_table(Staircase("red_merge", 1).as_term()),
            semantics_table(merge_hv()),
        )

    @pytest.mark.parametrize("kind", ["black_ladder", "red_ladder", "blue_ladder",
                                      "red_merge", "red_merge_inverse"])
    def test_pbs_count_equals_size(self, kind):
        for size in range(1, 6):
            assert count_pbs(Staircase(kind, size).as_term()) == size


KINDS = ["black_ladder", "red_ladder", "blue_ladder", "red_merge", "red_merge_inverse"]


def padded_drawing(sc: Staircase):
    """One layer per rung, an id on every wire the rung leaves alone."""
    types = list(sc.in_type)
    layers = []
    for pos, g in sc._rungs():
        a, b = g.signature()
        layers.append(par(*map(ident, types[:pos]), g, *map(ident, types[pos + len(a):])))
        types[pos : pos + len(a)] = b
    return seq(*layers) if layers else identity_of(sc.in_type)


class TestSideBySideDrawing:
    @pytest.mark.parametrize("kind", KINDS)
    def test_same_diagram_as_the_padded_drawing_and_never_longer(self, kind):
        for size in range(1 if kind.startswith("red_merge") else 0, 65):
            sc = Staircase(kind, size)
            d, pad = sc.as_term(), padded_drawing(sc)
            n = to_netlist(d)
            assert netlists_isomorphic(n, to_netlist(pad)), size
            assert tables_equal(semantics_table(n), semantics_table(to_netlist(pad))), size
            text = print_term(d)
            assert parse(text) == d
            assert count_pbs(d) == size
            assert len(text) <= len(print_term(pad)), size

    def test_rungs_side_by_side_from_five(self):
        assert print_term(Staircase("black_ladder", 4).as_term()) == print_term(
            padded_drawing(Staircase("black_ladder", 4))
        )
        d = Staircase("black_ladder", 5).as_term()
        assert isinstance(d, Trace) and "id[" not in print_term(d)
        assert print_term(d).count("tr[T](") == 4


# each patch breaks the drawing: a rung on the wrong colours, a rung list
# ending on the wrong type, and a negation layer between unmatched colours
BROKEN_DRAWINGS = [
    ("Staircase._rungs = lambda self: [(0, pbs_tv_vt())]", 'Staircase("black_ladder", 1)'),
    ("Staircase._rungs = lambda self: [(0, pbs4())] * self.size", 'Staircase("red_ladder", 9)'),
    ("Staircase._rungs = lambda self: []", 'Staircase("red_ladder", 1)'),
    ("Staircase._rungs = lambda self: [(0, merge_hv())]", 'Staircase("red_merge", 6)'),
    ("", 'StairForm((T,), (T,), (0,), (False,), (Staircase("red_ladder", 0),), (False,), (0,))'),
    ("", 'StairForm((T,), (V,), (0,), (True,), (Staircase("red_ladder", 0),), (True,), (0,))'),
]


def test_broken_drawings_raise_under_optimisation():
    script = (
        "from cpbs.stairs import Staircase, StairForm\n"
        "from cpbs.terms import Colour, merge_hv, pbs4, pbs_tv_vt\n"
        "T, V, H = Colour.T, Colour.V, Colour.H\n"
        "original = Staircase._rungs\n"
        f"for patch, case in {BROKEN_DRAWINGS!r}:\n"
        "    Staircase._rungs = original\n"
        "    exec(patch)\n"
        "    try:\n"
        "        eval(case).as_term()\n"
        "    except AssertionError as e:\n"
        "        print('raised', e)\n"
        "    else:\n"
        "        print('drawn', case)\n"
    )
    src = str(Path(cpbs.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    lines = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    ).stdout.splitlines()
    assert len(lines) == len(BROKEN_DRAWINGS)
    assert all(line.startswith("raised ") for line in lines), lines


class TestLowerBound:
    def test_parallel_identities_cost_nothing(self):
        t = semantics_table(par(ident(T), ident(T)))
        assert pbs_lower_bound(t) == 0

    def test_split_needs_one_pbs(self):
        assert pbs_lower_bound(semantics_table(split_vh())) == 1

    def test_four_port_pbs_table_needs_only_one(self):
        # the table alone does not force two crossings
        assert pbs_lower_bound(semantics_table(pbs4())) == 1

    def test_split_then_merge_is_free(self):
        assert pbs_lower_bound(semantics_table(seq(split_vh(), merge_vh()))) == 0

    def test_rejects_tables_with_gates(self):
        with pytest.raises(HasGates):
            pbs_lower_bound(semantics_table(gate_t("U")))

    def test_partition_splits_disjoint_wires(self):
        pa = partition_analysis(semantics_table(par(pbs4(), neg_vh())))
        assert pa.k == 2
        assert pa.blocks == (((0, 1), (0, 1)), ((2,), (2,)))
        assert pa.case_of_block == (1, 2)
        assert pa.s_L == pa.s_R == 0

    def test_merge_blocks_count_toward_s_l(self):
        pa = partition_analysis(semantics_table(merge_vh()))
        assert pa.s_L == 1 and pa.s_R == 0
        pa = partition_analysis(semantics_table(split_vh()))
        assert pa.s_L == 0 and pa.s_R == 1


class TestSynthesis:
    def test_split_then_merge_becomes_a_bare_wire(self):
        sf = synthesize_stair_form(semantics_table(seq(split_vh(), merge_vh())))
        assert sf.count_pbs() == 0
        assert sf.cases == (Staircase("black_ladder", 0),)

    def test_pbs_table_realised_with_one_crossing(self):
        sf = synthesize_stair_form(semantics_table(pbs4()))
        assert sf.cases == (Staircase("black_ladder", 1),)
        assert count_pbs(sf.as_term()) == 1

    def test_split_comes_back_as_a_split(self):
        sf = synthesize_stair_form(semantics_table(split_vh()))
        assert sf.cases == (Staircase("red_merge_inverse", 1),)
        assert not any(sf.pre_negs) and not any(sf.post_negs)

    def test_merge_vh_is_merge_hv_after_a_swap(self):
        sf = synthesize_stair_form(semantics_table(merge_vh()))
        assert sf.cases == (Staircase("red_merge", 1),)
        assert sf.sigma1 == (1, 0)
        assert not any(sf.pre_negs) and not any(sf.post_negs)

    def test_each_staircase_is_walked_once(self, monkeypatch):
        # both blocks have two coloured ends, so two block walks each
        walked = []
        original = stairs._stair_walks
        monkeypatch.setattr(stairs, "_stair_walks", lambda sc: walked.append(sc) or original(sc))
        sf = synthesize_stair_form(semantics_table(par(merge_vh(), split_vh())))
        assert tuple(walked) == sf.cases
        assert sf.cases == (Staircase("red_merge", 1), Staircase("red_merge_inverse", 1))

    def test_negation_survives_on_its_own_wire(self):
        sf = synthesize_stair_form(semantics_table(neg_t()))
        assert sf.count_pbs() == 0
        assert sum(sf.pre_negs) + sum(sf.post_negs) == 1

    def test_colour_changing_wire_uses_a_boundary_negation(self):
        sf = synthesize_stair_form(semantics_table(neg_vh()))
        assert sf.cases == (Staircase("red_ladder", 0),)
        assert sum(sf.pre_negs) + sum(sf.post_negs) == 1
        assert tables_equal(semantics_table(sf.as_term()), semantics_table(neg_vh()))

    def test_empty_diagram(self):
        sf = synthesize_stair_form(semantics_table(Empty()))
        assert sf.as_term() == Empty()

    def test_rejects_gates(self):
        with pytest.raises(HasGates):
            synthesize_stair_form(semantics_table(gate_t("U")))

    def test_rejects_non_bijective_tables(self):
        squashed = SemanticsTable((T,), (T,), {
            (V, 0): ((V, 0), ()),
            (H, 0): ((V, 0), ()),
        })
        with pytest.raises(NotBijective):
            synthesize_stair_form(squashed)

    def test_swap_costs_nothing(self):
        sf = synthesize_stair_form(semantics_table(swap(T, T)))
        assert sf.count_pbs() == 0
        assert sf.sigma2 in ((1, 0), (0, 1))  # routing may live on either side

    def test_random_diagrams_meet_the_bound(self):
        for seed in range(200):
            d = random_diagram(seed, max_generators=16, gate_free=True)
            t = semantics_table(d)
            sf = synthesize_stair_form(t)
            out = sf.as_term()
            assert tables_equal(semantics_table(out), t)
            assert count_pbs(out) == sf.count_pbs() == pbs_lower_bound(t)
            assert count_pbs(out) <= count_pbs(d)

    def test_scrambled_wide_staircases_are_recovered_exactly(self):
        import random

        from cpbs.terms import permute

        rng = random.Random(11)
        for kind in ("black_ladder", "red_ladder", "blue_ladder",
                     "red_merge", "red_merge_inverse"):
            for size in (3, 5):
                sc = Staircase(kind, size)
                outs = list(sc.out_type)
                perm = list(range(len(outs)))
                rng.shuffle(perm)
                pre = par(*(neg_t() if c == T and rng.random() < 0.5 else ident(c)
                            for c in sc.in_type))
                d = seq(*([pre, sc.as_term()] + permute(outs, perm)))
                t = semantics_table(d)
                sf = synthesize_stair_form(t)
                assert sf.count_pbs() == pbs_lower_bound(t) == size

    def test_negations_only_at_the_boundary(self):
        # the assembled term carries all its negations in the two neg layers
        for seed in range(60):
            d = random_diagram(seed, max_generators=10, gate_free=True)
            sf = synthesize_stair_form(semantics_table(d))
            stair_negs = sum(count_neg(sc.as_term()) for sc in sf.cases)
            assert stair_negs == 0
            total = count_neg(sf.as_term())
            assert total == sum(sf.pre_negs) + sum(sf.post_negs)


# ---------------------------------------------------------------------------
# the alignment against every walk, kept as the reference
# ---------------------------------------------------------------------------

_one_walk_per_colour = stairs._stair_walks


def _every_walk(sc: Staircase):
    """A black ladder's walk from each of its table's edges, 2s + 2 of them."""
    if sc.kind != "black_ladder":
        return _one_walk_per_colour(sc)
    edges = stairs._edges_of(semantics_table(to_netlist(sc.as_term())))
    return tuple(stairs._walk(edges, e, True) for e in edges)


def _block_walks_from_the_whole_table(t, ins, outs, case):
    edges = [e for e in stairs._edges_of(t) if e[1] in ins]
    if case == 1:
        return [stairs._walk(edges, next(e for e in edges if e[:2] == (V, min(ins))), True)]
    if case in (2, 3):
        coloured = sorted(p for p in ins if t.in_type[p] != T)
        return [stairs._walk(edges, next(e for e in edges if e[1] == p), True) for p in coloured]
    coloured = sorted(q for q in outs if t.out_type[q] != T)
    return [stairs._walk(edges, next(e for e in edges if e[3] == q), False) for q in coloured]


def _scrambled_staircases():
    import random

    from cpbs.terms import permute

    rng = random.Random(5)
    for kind in ("black_ladder", "red_ladder", "blue_ladder", "red_merge", "red_merge_inverse"):
        for size in range(1, 9):
            for _ in range(3):
                sc = Staircase(kind, size)
                perm = rng.sample(range(len(sc.out_type)), len(sc.out_type))
                pre = par(*(neg_t() if c == T and rng.random() < 0.5 else ident(c)
                            for c in sc.in_type))
                yield semantics_table(seq(pre, sc.as_term(), *permute(sc.out_type, perm)))


def _reduction_residuals():
    from cpbs.hardness import build_C_w_sigma, corpus, orient_eulerian, parse_graph
    from cpbs.pgt import _cut

    graphs = list(corpus().values())
    graphs += [parse_graph("".join(f"v{i} v{(i + 1) % n}\n" for i in range(n))) for n in (8, 16, 33)]
    for g in graphs:
        o = orient_eulerian(g)
        n = to_netlist(build_C_w_sigma(o.w, o.sigma))
        yield _cut(n)[1]


def test_two_walks_per_black_ladder_give_every_walks_stair_form(monkeypatch):
    tables = [semantics_table(random_diagram(seed, max_generators=16, max_wires=4, gate_free=True))
              for seed in range(200)]
    tables += [*_scrambled_staircases(), *_reduction_residuals()]
    fewer_negations = Counter()  # which start colour a black block aligns better with
    for t in tables:
        sf = synthesize_stair_form(t)
        with monkeypatch.context() as m:
            m.setattr(stairs, "_stair_walks", _every_walk)
            m.setattr(stairs, "_block_walks", _block_walks_from_the_whole_table)
            assert synthesize_stair_form(t) == sf
        pa = partition_analysis(t)
        fewest = 0  # the least negation count over every pair of walks, block by block
        for (ins, outs), case, sc in zip(pa.blocks, pa.case_of_block, sf.cases):
            walks = _block_walks_from_the_whole_table(t, ins, outs, case)
            fewest += min(stairs._align(bw, sw)[0] for bw in walks for sw in _every_walk(sc))
            if case == 1:
                h, v = (stairs._align(walks[0], sw)[0] for sw in stairs._stair_walks(sc))
                fewer_negations["H" if h < v else "V" if v < h else "tie"] += 1
        assert sum(sf.pre_negs) + sum(sf.post_negs) == fewest
    assert min(fewer_negations[k] for k in ("H", "V", "tie")) >= 10, fewer_negations


# constructor calls that must raise ValueError, also with assertions stripped
INVALID_VALUES = [
    'Staircase("bogus", 2)',
    'Staircase("black_ladder", -1)',
    'Staircase("red_merge", 0)',
    'Staircase("red_merge_inverse", 0)',
    "NormalForm((T,), (T,), ())",
    "NormalForm((V,), (V,), (NfLine((V, 0), (V, 0), ()), NfLine((V, 0), (V, 0), ())))",
    "NormalForm((T,), (T,), (NfLine((V, 0), (V, 0), ()), NfLine((H, 0), (V, 0), ())))",
]


def test_invalid_staircases_and_normal_forms_raise_under_optimisation():
    script = (
        "from cpbs.normal_form import NfLine, NormalForm\n"
        "from cpbs.stairs import Staircase\n"
        "from cpbs.terms import Colour\n"
        "T, V, H = Colour.T, Colour.V, Colour.H\n"
        f"for case in {INVALID_VALUES!r}:\n"
        "    try:\n"
        "        print(eval(case).as_term())\n"
        "    except ValueError as e:\n"
        "        print(e)\n"
    )
    src = str(Path(cpbs.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    lines = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    ).stdout.splitlines()
    want = []
    for case in INVALID_VALUES:
        with pytest.raises(ValueError) as e:
            eval(case)
        want.append(str(e.value))
    assert lines == want
