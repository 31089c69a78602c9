"""Command-line behaviour: outputs, exit codes, determinism."""

import contextlib
import importlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cpbs
import cpbs.quantum
from cpbs.cli import build_parser, main
from cpbs.randgen import random_diagram
from cpbs.textform import _token_texts, print_term

SWITCH = "tr[T](pbs ; (gate[U] | gate[V]) ; swap[T,T] ; pbs)\n"
HALF_LEFT = "gate[U,H] | gate[U,V]\n"
HALF_RIGHT = "merge[HV] ; gate[U] ; split[HV]\n"
ASSIGN = "U\t0,0\t1,0\t1,0\t0,0\nV\t1,0\t0,0\t0,0\t0,-1\n"
TRIANGLE = "A B\nB C\nC A\n"


@pytest.fixture
def files(tmp_path):
    def write(name, text):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    return write


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSubcommands:
    def test_check(self, files, capsys):
        code, out, _ = run(capsys, "check", files("d.cpbs", SWITCH))
        assert code == 0
        assert out == "(T) -> (T)\n"

    def test_table(self, files, capsys):
        code, out, _ = run(capsys, "table", files("d.cpbs", SWITCH))
        assert code == 0
        assert out == "V\t0\tV\t0\tU.V\nH\t0\tH\t0\tV.U\n"

    def test_table_empty_word_prints_dash(self, files, capsys):
        _, out, _ = run(capsys, "table", files("d.cpbs", "neg"))
        assert out == "V\t0\tH\t0\t-\nH\t0\tV\t0\t-\n"

    def test_normalize_output_reparses_to_an_equivalent(self, files, capsys):
        path = files("d.cpbs", SWITCH)
        code, out, _ = run(capsys, "normalize", path)
        assert code == 0
        code2, _, _ = run(capsys, "equal", path, files("nf.cpbs", out))
        assert code2 == 0

    def test_equal_yes(self, files, capsys):
        code, out, _ = run(
            capsys, "equal", files("a.cpbs", HALF_LEFT), files("b.cpbs", HALF_RIGHT)
        )
        assert code == 0
        assert out == "equivalent\n"

    def test_equal_no(self, files, capsys):
        code, out, _ = run(
            capsys, "equal", files("a.cpbs", "neg"), files("b.cpbs", "id[T]")
        )
        assert code == 1
        assert out == "not equivalent\n"

    def test_equal_type_mismatch_is_a_domain_error(self, files, capsys):
        code, _, err = run(
            capsys, "equal", files("a.cpbs", "id[T]"), files("b.cpbs", "id[V]")
        )
        assert code == 1
        assert "error:" in err

    def test_equal_type_mismatch_names_both_types_as_check_does(self, files, capsys):
        code, out, err = run(
            capsys, "equal", files("a.cpbs", "id[T]"), files("b.cpbs", "id[V]")
        )
        assert (code, out) == (1, "")
        assert err == "error: (T) -> (T) vs (V) -> (V)\n"

    def test_opt_queries(self, files, capsys):
        three = "split ; (id[V] | gate[U,H]) ; merge ; neg ; split ; (id[V] | gate[V,H]) ; merge ; neg ; split ; (id[V] | gate[U,H]) ; merge"
        code, out, _ = run(capsys, "opt-queries", files("d.cpbs", three))
        assert code == 0
        assert out.count("U") == 1

    def test_opt_pbs_reaches_the_bound(self, files, capsys):
        path = files("d.cpbs", HALF_RIGHT)
        code, out, _ = run(capsys, "opt-pbs", path)
        assert code == 0
        assert out.count("merge") == 1 and out.count("split") == 1

    def test_bounds_with_gates_masks_pbs_bound(self, files, capsys):
        code, out, _ = run(capsys, "bounds", files("d.cpbs", SWITCH))
        assert code == 0
        assert out == "U\t1\t1\nV\t1\t1\npbs\t2\t-\n"

    def test_bounds_gate_free(self, files, capsys):
        code, out, _ = run(capsys, "bounds", files("d.cpbs", "split"))
        assert code == 0
        assert out == "pbs\t1\t1\n"

    def test_simulate(self, files, capsys):
        code, out, _ = run(
            capsys,
            "simulate",
            files("d.cpbs", SWITCH),
            "--assign",
            files("m.tsv", ASSIGN),
        )
        assert code == 0
        assert out == (
            "0,0\t1,0\t0,0\t0,0\n"
            "0,-1\t0,0\t0,0\t0,0\n"
            "0,0\t0,0\t0,0\t0,-1\n"
            "0,0\t0,0\t1,0\t0,0\n"
        )

    def test_simulate_without_assignment_needs_no_file(self, files, capsys):
        code, out, _ = run(capsys, "simulate", files("d.cpbs", "pbs"))
        assert code == 0
        assert len(out.splitlines()) == 4

    def test_simulate_skips_blank_and_comment_lines(self, files, capsys):
        plain = run(capsys, "simulate", files("d.cpbs", SWITCH), "--assign", files("m.tsv", ASSIGN))
        noted = files("n.tsv", "# the switch's oracles\n\n" + ASSIGN.replace("\n", "\n\n  # 2x2\n", 1))
        assert run(capsys, "simulate", files("d.cpbs", SWITCH), "--assign", noted) == plain

    @pytest.mark.parametrize("text, error", [
        ("U\t1,0\t0,0\n", "assignment line 1: 2 entries is not square"),
        ("U\t1,0\nV\t1,0\t0,0\t0,0\t1,0\n", "assignment matrices must share one dimension"),
    ])
    def test_simulate_rejects_a_non_square_row_and_mixed_sizes(self, files, capsys, text, error):
        code, out, err = run(capsys, "simulate", files("d.cpbs", SWITCH), "--assign", files("m.tsv", text))
        assert (code, out, err) == (1, "", f"error: {error}\n")

    @pytest.mark.parametrize("line", ["U", "U 0,0 1,0 1,0 0,0"])
    def test_simulate_rejects_an_assignment_line_without_entries(self, files, capsys, line):
        # a bare letter, or entries separated by spaces, is not a 0x0 matrix
        assign = files("m.tsv", f"{line}\n")
        code, out, err = run(capsys, "simulate", files("d.cpbs", SWITCH), "--assign", assign)
        assert code == 1
        assert out == ""
        assert err.startswith("error: assignment line 1: ")

    def test_export_dot(self, files, capsys):
        code, out, _ = run(capsys, "export-dot", files("d.cpbs", HALF_RIGHT))
        assert code == 0
        assert out.startswith("digraph cpbs {")
        assert "color=red" in out and "color=blue" in out and "color=black" in out

    def test_reduce_ecd_output_parses(self, files, capsys):
        code, out, _ = run(capsys, "reduce-ecd", files("g.graph", TRIANGLE))
        assert code == 0
        from cpbs.terms import count_pbs, type_of
        from cpbs.textform import parse

        d = parse(out)
        a, b = type_of(d)
        assert len(a) == len(b) == 3
        assert count_pbs(d) == 4


class TestExitCodes:
    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "table", str(tmp_path / "nope.cpbs"))
        assert code == 1
        assert err.startswith("error:")

    def test_parse_error(self, files, capsys):
        code, _, err = run(capsys, "check", files("d.cpbs", "wat"))
        assert code == 1
        assert "unknown generator" in err

    def test_type_error(self, files, capsys):
        code, _, err = run(capsys, "check", files("d.cpbs", "split ; split"))
        assert code == 1
        assert "cannot compose" in err

    def test_deep_opt_pbs_output_reads_back(self, files, capsys):
        # opt-pbs puts each query on its own traced wire: 205 nested tr[T](
        wide = " | ".join(f"gate[A{i}]" for i in range(205))
        code, out, _ = run(capsys, "opt-pbs", files("d.cpbs", wide))
        assert code == 0
        assert out.count("tr[T](") == 205
        code, out, err = run(capsys, "check", files("o.cpbs", out))
        assert (code, err) == (0, "")
        assert out == f"({','.join('T' * 205)}) -> ({','.join('T' * 205)})\n"

    def test_non_eulerian_graph(self, files, capsys):
        code, _, err = run(capsys, "reduce-ecd", files("g.graph", "A B\n"))
        assert code == 1
        assert "odd degree" in err

    def test_out_of_memory_is_a_domain_error(self, files, capsys, monkeypatch):
        # simulate's dense matrix is what a few thousand wires cannot allocate
        def no_memory(*args):
            raise MemoryError

        monkeypatch.setattr(cpbs.quantum, "quantum_matrix", no_memory)
        code, out, err = run(capsys, "simulate", files("d.cpbs", SWITCH))
        assert (code, out, err) == (1, "", "error: out of memory\n")

    def test_usage_error_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_non_integer_seed_is_a_usage_error(self, files, capsys, monkeypatch):
        monkeypatch.setenv("CPBS_SEED", "abc")
        code, out, err = run(capsys, "reduce-ecd", files("g.graph", TRIANGLE))
        assert (code, out) == (2, "")
        assert err == "error: CPBS_SEED must be an integer, got 'abc'\n"
        code, out, err = run(capsys, "check", files("d.cpbs", SWITCH))  # only reduce-ecd reads it
        assert (code, out, err) == (0, "(T) -> (T)\n", "")


# the spellings the grammar knows, some it does not, and graph-file text
TOKENS = [
    "pbs", "pbs[TV.VT]", "pbs[VT.TV]", "pbs[HT.HT]", "pbs[TH.TH]", "pbs[TT.TT]",
    "split", "split[HV]", "merge", "merge[HV]", "neg", "neg[VH]", "neg[HV]",
    "id[T]", "id[V]", "id[H]", "id[]", "swap[T,V]", "swap[H,H]", "swap[T]",
    "perm[T,V;1,0]", "perm[V,H,T;2,0,1]", "perm[T;1]",
    "gate[U]", "gate[V,H]", "gate[U.V]", "gate[]", "gate[,V]", "gate[U..V]",
    "tr[T]", "tr[V]", "tr[H]", "tr[]", ";", "|", "(", ")", "[", "]", ",",
    "#", "\n", "wat", "A", "B", "0", "7",
]
COMMANDS = [
    "check", "table", "normalize", "opt-queries", "opt-pbs", "bounds",
    "simulate", "export-dot", "reduce-ecd",
]


@st.composite
def fuzzed_texts(draw):
    """Token soup, or a printed random diagram with one token inserted,
    deleted, swapped for another or exchanged with its neighbour; paired
    with the unmutated text, which ``equal`` compares against."""
    token = st.sampled_from(TOKENS)
    if draw(st.booleans()):
        text = " ".join(draw(st.lists(token, max_size=30)))
        return text, text
    d = random_diagram(draw(st.integers(0, 10**6)), max_generators=12)
    toks = _token_texts(print_term(d))
    i = draw(st.integers(0, len(toks)))
    mutated = list(toks)
    op = draw(st.sampled_from(["insert", "delete", "swap", "exchange"]))
    if op == "insert":
        mutated.insert(i, draw(token))
    elif i < len(toks):
        if op == "delete":
            del mutated[i]
        elif op == "swap":
            mutated[i] = draw(token)
        elif i + 1 < len(toks):
            mutated[i], mutated[i + 1] = mutated[i + 1], mutated[i]
    return " ".join(mutated), " ".join(toks)


@settings(max_examples=120, deadline=None)
@given(fuzzed_texts())
def test_every_subcommand_answers_or_errors_cleanly(tmp_path_factory, texts):
    # no traceback on any text: exit 0, 1 or 2, and nothing on stdout after
    # an error but `equal`'s verdict
    path_a = tmp_path_factory.getbasetemp() / "fuzz_a.cpbs"
    path_b = path_a.with_name("fuzz_b.cpbs")
    path_a.write_text(texts[0])
    path_b.write_text(texts[1])
    calls = [[cmd, str(path_a)] for cmd in COMMANDS] + [["equal", str(path_a), str(path_b)]]
    for argv in calls:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2), (argv, texts)
        if code:
            allowed = ("", "not equivalent\n") if argv[0] == "equal" else ("",)
            assert out.getvalue() in allowed, (argv, texts)


class TestDeterminism:
    def test_byte_identical_reruns(self, files, capsys):
        path = files("d.cpbs", SWITCH)
        outs = set()
        for _ in range(3):
            for cmd in ("table", "normalize", "bounds", "export-dot"):
                outs.add((cmd, run(capsys, cmd, path)[1]))
        assert len(outs) == 4

    def test_seed_env_var_changes_orientation(self, files, capsys, monkeypatch):
        bowtie = "A B\nB C\nC A\nC D\nD E\nE C\n"
        path = files("g.graph", bowtie)
        _, base, _ = run(capsys, "reduce-ecd", path)
        monkeypatch.setenv("CPBS_SEED", "0")
        _, same, _ = run(capsys, "reduce-ecd", path)
        monkeypatch.setenv("CPBS_SEED", "3")
        _, other, _ = run(capsys, "reduce-ecd", path)
        assert base == same
        assert other != base

    def test_stdin_dash(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("pbs"))
        code, out, _ = run(capsys, "check", "-")
        assert code == 0
        assert out == "(T,T) -> (T,T)\n"

    @pytest.mark.parametrize("text", ["id[T]", "tr[T](id[T])"])
    def test_stdin_for_both_diagrams_is_a_usage_error(self, capsys, monkeypatch, text):
        import io

        # stdin is read once: a second `-` would get empty text, the empty diagram
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, out, err = run(capsys, "equal", "-", "-")
        assert (code, out) == (2, "")
        assert err == "error: stdin (-) can be read for one input only\n"

    def test_stdin_for_diagram_and_assignment_is_a_usage_error(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("gate[U]"))
        code, out, err = run(capsys, "simulate", "-", "--assign", "-")
        assert (code, out) == (2, "")
        assert err == "error: stdin (-) can be read for one input only\n"

    def test_stdin_for_one_input_of_two_is_read(self, files, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("tr[T](id[T])"))
        code, out, err = run(capsys, "equal", "-", files("d.cpbs", "id[T]"))
        assert (code, out, err) == (1, "", "error: () -> () vs (T) -> (T)\n")
        monkeypatch.setattr("sys.stdin", io.StringIO("U\t1,0\n"))
        code, out, err = run(capsys, "simulate", files("g.cpbs", "gate[U]"), "--assign", "-")
        assert (code, out, err) == (0, "1,0\t0,0\n0,0\t1,0\n", "")


class TestParserReuse:
    """`main` shares one parser across calls; no call may see another's arguments."""

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_option_does_not_carry_into_the_next_call(self, files, capsys):
        path = files("d.cpbs", SWITCH)
        code, out, _ = run(capsys, "simulate", path, "--assign", files("m.tsv", ASSIGN))
        assert code == 0
        assert out.startswith("0,0\t1,0\t0,0\t0,0\n")
        code, out, err = run(capsys, "simulate", path)
        assert code == 1
        assert out == ""
        assert err == "error: no matrix assigned to oracle letter 'U'\n"

    def test_usage_error_then_valid_call(self, files, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--assign"])
        assert exc.value.code == 2
        capsys.readouterr()
        code, out, err = run(capsys, "check", files("d.cpbs", SWITCH))
        assert code == 0
        assert out == "(T) -> (T)\n"
        assert err == ""


# Run in a fresh interpreter: this one has numpy and every cpbs module
# loaded by other tests.
LAZY_LOADING_SCRIPT = """
import contextlib, io, json, sys
def modules():
    return sorted(n.removeprefix("cpbs.") for n in sys.modules if n.startswith("cpbs."))
def stdlib(when):
    for name in ("dataclasses", "inspect"):
        seen[when + "_" + name] = name in sys.modules
import cpbs
seen = {"import": "numpy" in sys.modules, "import_modules": modules()}
stdlib("import")
import cpbs.cli
for command in ("check", "table", "opt-pbs"):
    with contextlib.redirect_stdout(io.StringIO()):
        seen[command + "_exit"] = cpbs.cli.main([command, sys.argv[1]])
    seen[command + "_modules"] = modules()
    if command == "check":
        stdlib("check")
seen["check"] = "numpy" in sys.modules
out = io.StringIO()
with contextlib.redirect_stdout(out):
    seen["simulate_exit"] = cpbs.cli.main(["simulate", sys.argv[1]])
seen["simulate_rows"] = len(out.getvalue().splitlines())
seen["simulate"] = "numpy" in sys.modules
from cpbs import quantum_matrix
import cpbs.quantum
seen["same_function"] = quantum_matrix is cpbs.quantum.quantum_matrix
print(json.dumps(seen))
"""

TERM_LANGUAGE = ["errors", "terms", "textform"]


def test_numpy_loads_only_for_the_quantum_semantics(files):
    # and each subcommand loads only the cpbs modules it runs; the term
    # language and `check` load no dataclasses (nor the inspect it imports)
    src = str(Path(cpbs.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", LAZY_LOADING_SCRIPT, files("d.cpbs", "pbs")],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    assert json.loads(done.stdout) == {
        "import": False,
        "import_modules": TERM_LANGUAGE,
        "import_dataclasses": False,
        "import_inspect": False,
        "check_exit": 0,
        "check_modules": sorted(TERM_LANGUAGE + ["cli"]),
        "check_dataclasses": False,
        "check_inspect": False,
        "table_exit": 0,
        "table_modules": sorted(TERM_LANGUAGE + ["cli", "netlist", "semantics"]),
        "opt-pbs_exit": 0,
        "opt-pbs_modules": sorted(TERM_LANGUAGE + ["cli", "netlist", "normal_form", "pgt", "query_opt",
                                                   "rewrite", "rules", "semantics", "stairs"]),
        "check": False,
        "simulate_exit": 0,
        "simulate_rows": 4,
        "simulate": True,
        "same_function": True,
    }


# what dir(cpbs) listed while the package loaded eagerly, less its private names
PUBLIC_NAMES = """
    ALL_RULE_IDS BudgetExceeded Colour Configuration CpbsError CycleDecomposition DerivationFailed Empty
    EulerianGraph Gen HasGates InvalidConfiguration InvalidDecomposition LengthMismatch MissingAssignment
    Netlist NormalForm NotBijective NotEulerian NotFound NotQueryOptimal Orientation Par PgtForm
    PreconditionViolated ProofStep QueryProfile RULES Rule RuleInstance SemanticsTable Seq StairForm
    Staircase StaleInstance Term Trace TypeMismatch annotations apply brute_force_min_pbs build_C_w_sigma
    check_soundness count_neg count_pbs count_queries diagram_from_decomposition equivalent errors evaluate
    find_matches gate_h gate_t gate_v hardness ident identity_of is_bijective is_query_optimal
    is_query_pbs_optimal_single max_ecd_bruteforce merge_hv merge_vh neg_hv neg_t neg_vh netlist
    netlists_isomorphic nf_by_rewriting normal_form normalize optimize_queries optimize_queries_traced
    orient_eulerian par parse parse_graph partition_analysis pbs4 pbs_ht_ht pbs_lower_bound pbs_th_th
    pbs_tv_vt pbs_vt_tv pgt print_term query_lower_bounds query_opt query_profile randgen random_diagram
    replay_derivation rewrite rules semantics semantics_table seq split_hv split_vh stairs swap synthesize_nf
    synthesize_stair_form tables_equal terms textform to_netlist to_pgt_form to_term type_of
""".split()


def test_package_namespace():
    for name, module in cpbs._HOME.items():
        value = getattr(cpbs, name)
        home = importlib.import_module(f"cpbs.{module}")
        assert value is (home if name == module else getattr(home, name)), name
    assert set(dir(cpbs)) >= set(PUBLIC_NAMES) | set(cpbs._HOME)
    with pytest.raises(AttributeError, match="^module 'cpbs' has no attribute 'nope'$"):
        cpbs.nope


def test_a_package_name_does_not_outlive_a_patch(monkeypatch):
    # a name read while its home module's function is patched gives the
    # patch, and the home module's own function once the patch is undone
    original = cpbs.pgt.brute_force_min_pbs

    def stand_in(t, max_pbs, neg_budget=2):
        return 0

    with monkeypatch.context() as patch:
        patch.setattr(cpbs.pgt, "brute_force_min_pbs", stand_in)
        assert cpbs.brute_force_min_pbs is stand_in
    assert cpbs.brute_force_min_pbs is original
