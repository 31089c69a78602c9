"""Stair synthesis and the PBS lower bound."""

import pytest

from cpbs import stairs
from cpbs.errors import HasGates, NotBijective
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
    count_neg,
    count_pbs,
    gate_t,
    ident,
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
