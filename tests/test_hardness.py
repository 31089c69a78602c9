"""Eulerian orientation, MAX-ECD brute force, and the reduction diagrams."""

import random
import time

import pytest

import cpbs.hardness as hardness
from cpbs.cli import main
from cpbs.errors import (
    BudgetExceeded,
    InvalidDecomposition,
    LengthMismatch,
    NotEulerian,
)
from cpbs.hardness import (
    CycleDecomposition,
    EulerianGraph,
    build_C_w_sigma,
    corpus,
    diagram_from_decomposition,
    max_ecd_bruteforce,
    orient_eulerian,
    parse_graph,
)
from cpbs.normal_form import normalize
from cpbs.semantics import semantics_table, tables_equal
from cpbs.terms import Colour, Empty, count_neg, count_pbs, gate_t
from cpbs.textform import parse, print_term

V, H = Colour.V, Colour.H

EXPECTED_R = {
    "triangle": 1,
    "bowtie": 2,
    "self_loop": 1,
    "two_self_loops": 2,
    "doubled_edge": 1,
    "square": 1,
    "two_four_cycles": 3,
    "figure_eight": 2,
    "k5": 3,
    "doubled_triangle": 3,
    "loop_plus_triangle": 2,
    "doubled_path": 2,
}


class TestGraphs:
    def test_parse_with_comments_and_blanks(self):
        g = parse_graph("# a triangle\nA B\n\nB C  # second edge\nC A\n")
        assert g.edges == (("A", "B"), ("B", "C"), ("C", "A"))
        assert g.vertices == frozenset("ABC")
        assert g.n == 3

    def test_parse_rejects_malformed_line(self):
        with pytest.raises(SyntaxError, match="line 2"):
            parse_graph("A B\nA B C\n")

    def test_odd_degree_rejected(self):
        with pytest.raises(NotEulerian, match="odd degree"):
            parse_graph("A B")

    def test_disconnected_rejected(self):
        with pytest.raises(NotEulerian, match="disconnected"):
            parse_graph("A B\nB A\nC D\nD C")

    def test_unknown_vertex_rejected(self):
        with pytest.raises(NotEulerian, match="unknown vertex"):
            EulerianGraph(frozenset({"A"}), (("A", "B"), ("B", "A")))

    def test_connectivity_check_is_linear_in_the_edges(self):
        n = 10_000
        text = "".join(f"v{i} v{(i + 1) % n}\n" for i in range(n))
        start = time.perf_counter()
        g = parse_graph(text)
        elapsed = time.perf_counter() - start
        assert g.n == n
        assert elapsed < 3.0, f"{elapsed:.2f} s to parse a {n}-edge cycle"
        with pytest.raises(NotEulerian, match="disconnected"):
            parse_graph(text + "a b\nb a\n")

    def test_isolated_vertices_are_fine(self):
        g = EulerianGraph(frozenset({"A", "B", "Z"}), (("A", "B"), ("B", "A")))
        assert g.n == 2

    def test_corpus_is_the_fixed_twelve(self):
        graphs = corpus()
        assert set(graphs) == set(EXPECTED_R)
        assert all(g.n <= 10 for g in graphs.values())


class TestOrientation:
    def test_triangle_circuit(self):
        o = orient_eulerian(parse_graph("A B\nB C\nC A"))
        assert len(o.arcs) == 3
        # one circuit, so sigma is a single 3-cycle
        p = o.sigma[0]
        seen = {0, p, o.sigma[p]}
        assert seen == {0, 1, 2}
        for p in range(3):
            assert o.arcs[p][1] == o.arcs[o.sigma[p]][0]

    def test_tails_make_up_w(self):
        o = orient_eulerian(parse_graph("A B\nB C\nC A"), seed=7)
        assert o.w == tuple(tail for tail, _ in o.arcs)

    def test_self_loop(self):
        o = orient_eulerian(parse_graph("A A"))
        assert o == orient_eulerian(parse_graph("A A"))
        assert o.arcs == (("A", "A"),)
        assert o.w == ("A",)
        assert o.sigma == (0,)

    def test_balanced_in_and_out_degrees(self):
        for g in corpus().values():
            o = orient_eulerian(g, seed=3)
            out_deg: dict[str, int] = {}
            in_deg: dict[str, int] = {}
            for tail, head in o.arcs:
                out_deg[tail] = out_deg.get(tail, 0) + 1
                in_deg[head] = in_deg.get(head, 0) + 1
            assert out_deg == in_deg

    def test_vertex_appears_half_its_degree_times(self):
        for g in corpus().values():
            o = orient_eulerian(g)
            degree: dict[str, int] = {}
            for u, v in g.edges:
                degree[u] = degree.get(u, 0) + 1
                degree[v] = degree.get(v, 0) + 1
            for x, d in degree.items():
                assert o.w.count(x) == d // 2

    def test_same_seed_same_orientation(self):
        g = corpus()["bowtie"]
        assert orient_eulerian(g, seed=5) == orient_eulerian(g, seed=5)

    def test_empty_graph(self):
        o = orient_eulerian(EulerianGraph(frozenset(), ()))
        assert o.arcs == () and o.w == () and o.sigma == ()


class TestBuildC:
    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            build_C_w_sigma(("A", "B"), (0,))
        with pytest.raises(LengthMismatch, match="not a permutation"):
            build_C_w_sigma(("A", "B"), (0, 0))

    def test_single_letter_is_just_a_gate(self):
        d = build_C_w_sigma(("A",), (0,))
        assert count_pbs(d) == 0
        assert tables_equal(semantics_table(d), semantics_table(gate_t(("A",))))

    def test_triangle_table_reads_tails_and_heads(self):
        o = orient_eulerian(parse_graph("A B\nB C\nC A"))
        d = build_C_w_sigma(o.w, o.sigma)
        rows = semantics_table(d).rows()
        for p in range(3):
            tail, head = o.arcs[p]
            assert rows[2 * p] == ((V, p), (V, p), (tail,))
            assert rows[2 * p + 1] == ((H, p), (H, p), (head,))

    def test_pbs_count_is_twice_n_minus_cycles(self):
        rng = random.Random(11)
        for _ in range(25):
            n = rng.randrange(1, 7)
            sigma = list(range(n))
            rng.shuffle(sigma)
            w = tuple(rng.choice("ABC") for _ in range(n))
            d = build_C_w_sigma(w, tuple(sigma))
            seen: set[int] = set()
            cycles = 0
            for p in range(n):
                if p not in seen:
                    cycles += 1
                    while p not in seen:
                        seen.add(p)
                        p = sigma[p]
            assert count_pbs(d) == 2 * (n - cycles)
            rows = semantics_table(d).rows()
            for p in range(n):
                assert rows[2 * p] == ((V, p), (V, p), (w[p],))
                assert rows[2 * p + 1] == ((H, p), (H, p), (w[sigma[p]],))

    def test_routers_use_no_negations(self):
        o = orient_eulerian(corpus()["bowtie"])
        assert count_neg(build_C_w_sigma(o.w, o.sigma)) == 0


class TestMaxEcd:
    @pytest.mark.parametrize("name", sorted(EXPECTED_R))
    def test_corpus_r_star(self, name):
        assert max_ecd_bruteforce(corpus()[name]).r == EXPECTED_R[name]

    def test_budget(self):
        ring = [f"V{i} V{(i + 1) % 12}" for i in range(12)]
        with pytest.raises(BudgetExceeded):
            max_ecd_bruteforce(parse_graph("\n".join(ring)))

    def test_cycles_partition_the_edges(self):
        for g in corpus().values():
            dec = max_ecd_bruteforce(g)
            used = sorted(i for cycle in dec.cycles for i, _, _ in cycle)
            assert used == list(range(g.n))
            for cycle in dec.cycles:
                for j, (_, _, head) in enumerate(cycle):
                    assert head == cycle[(j + 1) % len(cycle)][1]

    def test_parallel_pair_is_a_two_cycle(self):
        dec = max_ecd_bruteforce(parse_graph("A B\nA B"))
        assert dec.r == 1
        assert len(dec.cycles[0]) == 2


class TestDiagramFromDecomposition:
    def test_self_loop_is_a_bare_gate(self):
        g = corpus()["self_loop"]
        d = diagram_from_decomposition(g, max_ecd_bruteforce(g))
        assert count_pbs(d) == 0
        assert tables_equal(semantics_table(d), semantics_table(gate_t(("A",))))

    def test_an_edgeless_graph_reduces_to_the_empty_diagram(self, tmp_path, capsys):
        assert build_C_w_sigma((), ()) == Empty()
        g = EulerianGraph(frozenset(), ())
        assert diagram_from_decomposition(g, CycleDecomposition(())) == Empty()
        graph = tmp_path / "edgeless.graph"
        graph.write_text("# no edges\n")
        assert main(["reduce-ecd", str(graph)]) == 0
        out, err = capsys.readouterr()
        assert (out, err) == (print_term(Empty()) + "\n", "")
        assert parse(out) == Empty()

    def test_matches_reference_table_on_the_corpus(self):
        for g in corpus().values():
            dec = max_ecd_bruteforce(g)
            d = diagram_from_decomposition(g, dec)
            ref = orient_eulerian(g, seed=0)
            want = semantics_table(build_C_w_sigma(ref.w, ref.sigma))
            assert tables_equal(semantics_table(d), want)
            assert count_pbs(d) == 2 * (g.n - dec.r)

    def test_a_router_turning_the_wrong_way_is_caught(self, monkeypatch):
        # a router sending p to sigma^-1(p), as a ladder laid in ascending
        # cycle order does, keeps the PBS count; checked against the table
        # build_C_w_sigma states, not a second drawing by that same router,
        # the reference circuit itself fails wherever sigma^-1 != sigma
        real = hardness._router
        monkeypatch.setattr(hardness, "_router", lambda sigma: real(hardness._inverse(sigma)))
        caught = []
        for name, g in corpus().items():
            ref = orient_eulerian(g, seed=0)
            circuit = [0]
            while ref.sigma[circuit[-1]]:
                circuit.append(ref.sigma[circuit[-1]])
            try:
                diagram_from_decomposition(
                    g, CycleDecomposition((tuple((p, *ref.arcs[p]) for p in circuit),)))
            except AssertionError as e:
                assert str(e) == "reduction diagram changes the reference table"
                caught.append(name)
        assert caught == [name for name, g in corpus().items() if g.n > 2]
        assert len(caught) == 9

    def test_reversed_cycle_still_matches(self):
        g = corpus()["triangle"]
        ref = orient_eulerian(g, seed=0)
        # traverse the circuit in reference direction and against it
        order = [0, ref.sigma[0], ref.sigma[ref.sigma[0]]]
        aligned = CycleDecomposition(
            (tuple((p,) + ref.arcs[p] for p in order),)
        )
        flipped = CycleDecomposition(
            (tuple((p, ref.arcs[p][1], ref.arcs[p][0]) for p in reversed(order)),)
        )
        da = diagram_from_decomposition(g, aligned)
        df = diagram_from_decomposition(g, flipped)
        assert tables_equal(semantics_table(da), semantics_table(df))
        assert count_neg(da) == 0
        assert count_neg(df) == 6

    def test_rejects_missing_edge(self):
        g = corpus()["triangle"]
        with pytest.raises(InvalidDecomposition, match="exactly once"):
            diagram_from_decomposition(
                g, CycleDecomposition((((0, "A", "B"), (1, "B", "C"), (2, "C", "A")),) * 2)
            )

    def test_rejects_broken_chain(self):
        g = corpus()["triangle"]
        with pytest.raises(InvalidDecomposition, match="cycle breaks"):
            diagram_from_decomposition(
                g, CycleDecomposition((((0, "A", "B"), (1, "C", "B"), (2, "C", "A")),))
            )

    def test_rejects_arc_not_matching_edge(self):
        g = corpus()["triangle"]
        with pytest.raises(InvalidDecomposition, match="does not match"):
            diagram_from_decomposition(
                g, CycleDecomposition((((0, "A", "C"), (1, "C", "B"), (2, "B", "A")),))
            )


class TestScale:
    """Each router permutation is one perm, so wide reductions stay shallow and small."""

    def test_48_edge_closed_walk(self):
        # a closed walk of 48 steps through 24 vertices, each visited at least once
        rng = random.Random(0)
        walk = rng.sample(range(24), 24)
        for i in range(24, 48):
            banned = {walk[-1], walk[0]} if i == 47 else {walk[-1]}
            walk.append(rng.choice([v for v in range(24) if v not in banned]))
        g = parse_graph("".join(f"v{walk[i]} v{walk[(i + 1) % 48]}\n" for i in range(48)))
        o = orient_eulerian(g)
        d = build_C_w_sigma(o.w, o.sigma)
        text = print_term(d)
        assert len(text) < 64_000
        d2 = parse(text)
        t = semantics_table(d2)
        assert tables_equal(t, semantics_table(d))
        assert [(l.source, l.target, l.word) for l in normalize(d2).lines] == t.rows()
        for p in range(48):
            tail, head = o.arcs[p]
            assert t.entries[(V, p)] == ((V, p), (tail,))
            assert t.entries[(H, p)] == ((H, p), (head,))

    def test_reduce_ecd_on_the_41_edge_cycle(self, tmp_path, capsys):
        graph = tmp_path / "cycle.graph"
        graph.write_text("".join(f"c{i} c{(i + 1) % 41}\n" for i in range(41)))
        assert main(["reduce-ecd", str(graph)]) == 0
        diagram = tmp_path / "cycle.cpbs"
        diagram.write_text(capsys.readouterr().out)
        ring = "(" + ",".join(["T"] * 41) + ")"
        assert main(["check", str(diagram)]) == 0
        assert capsys.readouterr().out == f"{ring} -> {ring}\n"
        assert main(["table", str(diagram)]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 82
