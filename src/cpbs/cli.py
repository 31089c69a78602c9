"""Command-line front end.

Subcommands cover type checking, tables, normal forms, equivalence,
the two optimisers, lower bounds, matrix simulation, DOT export and
the Eulerian-graph reduction.  Exit codes: 0 success, 1 domain errors
(including `equal` deciding "not equivalent"), 2 usage errors.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from typing import TYPE_CHECKING

import cpbs

from .errors import CpbsError, HasGates
from .terms import Colour, Term, count_pbs, type_of, type_str
from .textform import parse, print_term

# Every other library name is read off its home module when it is called,
# so a subcommand loads only the modules it runs (see cpbs/__init__.py),
# and a wrapper put on a home module's function is the one that runs.
if TYPE_CHECKING:  # numpy and the quantum semantics load only for `simulate`
    import numpy as np

    from .quantum import GateAssignment

_EDGE_COLOUR = {Colour.T: "black", Colour.V: "red", Colour.H: "blue"}


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, encoding="utf-8") as f:
        return f.read()


def _load(path: str) -> Term:
    return parse(_read(path))


def _word_text(word: tuple[str, ...]) -> str:
    return ".".join(word) if word else "-"


def _table_tsv(d: Term) -> str:
    t = cpbs.semantics.semantics_table(cpbs.netlist.to_netlist(d))
    lines = []
    for (pol, pos), (pol2, pos2), word in t.rows():
        lines.append(f"{pol.value}\t{pos}\t{pol2.value}\t{pos2}\t{_word_text(word)}")
    return "\n".join(lines)


def _bounds_text(d: Term) -> str:
    n = cpbs.netlist.to_netlist(d)
    t = cpbs.semantics.semantics_table(n)
    lines = [cpbs.query_opt._query_profile(n, t).as_tsv()]
    try:
        pbs_bound = str(cpbs.stairs.pbs_lower_bound(t))
    except HasGates:
        pbs_bound = "-"
    lines.append(f"pbs\t{count_pbs(d)}\t{pbs_bound}")
    return "\n".join(line for line in lines if line)


def _read_assignment(path: str | None) -> GateAssignment:
    import numpy as np

    if path is None:
        return cpbs.quantum.GateAssignment(1, {})
    mats: dict[str, np.ndarray] = {}
    dim = 1
    for lineno, raw in enumerate(_read(path).splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        letter, *cells = line.split("\t")
        if not cells:
            raise ValueError(f"assignment line {lineno}: no tab-separated entries after {letter!r}")
        d = int(round(len(cells) ** 0.5))
        if d * d != len(cells):
            raise ValueError(f"assignment line {lineno}: {len(cells)} entries is not square")
        mat = np.empty((d, d), dtype=complex)
        for k, cell in enumerate(cells):
            re_s, _, im_s = cell.partition(",")
            mat[k // d, k % d] = complex(float(re_s), float(im_s or 0.0))
        mats[letter] = mat
        dim = d
    return cpbs.quantum.GateAssignment(dim, mats)


def _matrix_tsv(m: np.ndarray) -> str:
    lines = []
    for row in m:
        lines.append("\t".join(f"{z.real:.12g},{z.imag:.12g}" for z in row))
    return "\n".join(lines)


def _dot_text(d: Term) -> str:
    n = cpbs.netlist.to_netlist(d)
    out = ["digraph cpbs {", "  rankdir=LR;"]
    for i in range(len(n.in_type)):
        out.append(f'  in{i} [shape=point,xlabel="in{i}"];')
    for j in range(len(n.out_type)):
        out.append(f'  out{j} [shape=point,xlabel="out{j}"];')
    for nid in sorted(n.nodes):
        node = n.nodes[nid]
        label = node.kind if not node.word else f"{node.kind}({'.'.join(node.word)})"
        out.append(f'  n{nid} [shape=box,label="{label}"];')
    def port(end: tuple) -> str:
        if end[0] == "bin":
            return f"in{end[1]}"
        if end[0] == "bout":
            return f"out{end[1]}"
        return f"n{end[1]}"
    for snk in sorted(n.wires, key=repr):
        src = n.wires[snk]
        colour = _EDGE_COLOUR[n.sink_colour(snk)]
        out.append(f"  {port(src)} -> {port(snk)} [color={colour}];")
    for k, c in enumerate(n.loops):
        out.append(f'  loop{k} [shape=circle,label=""];')
        out.append(f"  loop{k} -> loop{k} [color={_EDGE_COLOUR[c]}];")
    out.append("}")
    return "\n".join(out)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process and shared by every `main` call."""
    ap = argparse.ArgumentParser(
        prog="cpbs", description="coloured PBS-diagram toolkit"
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name: str, help_: str, files: int = 1) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_)
        if files == 1:
            p.add_argument("file", help="diagram file (- for stdin)")
        elif files == 2:
            p.add_argument("file_a")
            p.add_argument("file_b")
        return p

    add("check", "type-check a diagram and print its type")
    add("table", "print the action table as TSV")
    add("normalize", "print the normal form")
    add("equal", "decide equivalence of two diagrams", files=2)
    add("opt-queries", "print a query-optimal equivalent")
    add("opt-pbs", "optimise queries then beam splitters")
    add("bounds", "print query and PBS lower bounds")
    sim = add("simulate", "print the quantum matrix")
    sim.add_argument("--assign", metavar="FILE", help="letter\\tre,im... matrix file")
    add("export-dot", "print a DOT rendering")
    red = sub.add_parser("reduce-ecd", help="diagram whose PBS-optimisation solves MAX-ECD")
    red.add_argument("graphfile", help="edge list (- for stdin)")
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if [getattr(args, a, None) for a in ("file", "file_a", "file_b", "assign")].count("-") > 1:
        print("error: stdin (-) can be read for one input only", file=sys.stderr)
        return 2
    try:
        if args.command == "check":
            a, b = type_of(_load(args.file))
            print(f"{type_str(a)} -> {type_str(b)}")
        elif args.command == "table":
            print(_table_tsv(_load(args.file)))
        elif args.command == "normalize":
            print(print_term(cpbs.normal_form.normalize(_load(args.file)).as_term()))
        elif args.command == "equal":
            if cpbs.normal_form.equivalent(_load(args.file_a), _load(args.file_b)):
                print("equivalent")
            else:
                print("not equivalent")
                return 1
        elif args.command == "opt-queries":
            print(print_term(cpbs.query_opt.optimize_queries(_load(args.file))))
        elif args.command == "opt-pbs":
            n, t, _ = cpbs.query_opt._optimize_queries(_load(args.file))
            print(print_term(cpbs.pgt._to_pgt_form(n, t).as_term()))
        elif args.command == "bounds":
            print(_bounds_text(_load(args.file)))
        elif args.command == "simulate":
            t = cpbs.semantics.semantics_table(cpbs.netlist.to_netlist(_load(args.file)))
            print(_matrix_tsv(cpbs.quantum.quantum_matrix(t, _read_assignment(args.assign))))
        elif args.command == "export-dot":
            print(_dot_text(_load(args.file)))
        else:  # reduce-ecd
            seed_text = os.environ.get("CPBS_SEED", "0")
            try:
                seed = int(seed_text)
            except ValueError:
                print(f"error: CPBS_SEED must be an integer, got {seed_text!r}", file=sys.stderr)
                return 2
            g = cpbs.hardness.parse_graph(_read(args.graphfile))
            o = cpbs.hardness.orient_eulerian(g, seed=seed)
            print(print_term(cpbs.hardness.build_C_w_sigma(o.w, o.sigma)))
    except (CpbsError, TypeError, SyntaxError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
