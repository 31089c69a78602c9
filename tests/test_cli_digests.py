"""Every subcommand's exit code, stdout and stderr, pinned by SHA-1.

Each subcommand runs in-process through ``cpbs.cli.main`` over one
fixed corpus: the gallery, 100 seeded random diagrams of 8 to 64
generators on 2 to 6 wires, and the ``reduce-ecd`` diagrams of 10
closed-walk graphs of 8 to 64 edges.  A change that is meant to keep
every output byte-identical must leave ``DIGESTS`` as it is.  A change
that alters an output format on purpose (a layered ``to_term``, n-ary
terms) updates the digests it moves and says so in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import inspect
import io
import random

import pytest

from cpbs import gallery
from cpbs.cli import main
from cpbs.randgen import random_diagram
from cpbs.textform import print_term

# Pauli-like matrices: every entry of every product is exact in floating point
ASSIGN = "U\t0,0\t1,0\t1,0\t0,0\nV\t1,0\t0,0\t0,0\t-1,0\nW\t0,0\t0,-1\t0,1\t0,0\n"
EDGES = (8, 12, 16, 20, 24, 32, 40, 48, 56, 64)

DIGESTS = {
    "check": "f2787bba9e2fdcd7c81bde47bc1893bd910c21b0",
    "table": "11292d80b855cb9ca3ccfc1203db0089304c4ea3",
    "normalize": "a4cce26c46e92046a35add46a015e8553a60dce6",
    "equal": "a88110f31bff51db5e0e9d0ed0ac0d4d726d00a9",
    "opt-queries": "868986dde6dfc64607bd949caae47e63b773315b",
    "opt-pbs": "28634475a4356b0196e26a5a3391663560d71153",
    "bounds": "b9443ca8c7c7f0535b09b81db3aff1ecad539a82",
    "simulate": "2b389fc1d013bdc3adbc494cc639a0e7fa5b6160",
    "export-dot": "2674a3b6d4c235331926e09ba5c87ab70bd342fa",
    "reduce-ecd": "e18b969625c0029e8f358f4a1b6e384fe73cf43c",
}


def _closed_walk(rng: random.Random, n: int) -> str:
    """A connected Eulerian multigraph: a closed walk of n steps over n // 2
    vertices that visits each of them, with no self-loops."""
    k = n // 2
    walk = rng.sample(range(k), k)
    for i in range(k, n):
        banned = {walk[-1], walk[0]} if i == n - 1 else {walk[-1]}
        walk.append(rng.choice([v for v in range(k) if v not in banned]))
    return "".join(f"v{walk[i]} v{walk[(i + 1) % n]}\n" for i in range(n))


def _run(capsys, argv: list[str]) -> bytes:
    code = main(argv)
    out, err = capsys.readouterr()
    return f"{code}\n{out}\0{err}\0".encode()


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """The graph files, then the diagram files: gallery, random draws, reductions."""
    work = tmp_path_factory.mktemp("digests")
    rng = random.Random(0)
    graphs = []
    for n in EDGES:
        graphs.append(work / f"e{n}.graph")
        graphs[-1].write_text(_closed_walk(rng, n))
    texts = [print_term(f()) for _, f in inspect.getmembers(gallery, inspect.isfunction)
             if f.__module__ == gallery.__name__ and not inspect.signature(f).parameters]
    texts += [print_term(random_diagram(s, max_generators=(8, 16, 32, 64)[s % 4], max_wires=2 + s % 5))
              for s in range(100)]
    for g in graphs:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["reduce-ecd", str(g)]) == 0
        texts.append(out.getvalue())
    diagrams = []
    for k, text in enumerate(texts):
        diagrams.append(work / f"d{k}.cpbs")
        diagrams[-1].write_text(text)
    (work / "assign.tsv").write_text(ASSIGN)
    return work, [str(g) for g in graphs], [str(d) for d in diagrams]


@pytest.mark.parametrize("command", sorted(DIGESTS))
def test_outputs_match_their_digest(command, corpus, capsys):
    work, graphs, diagrams = corpus
    h = hashlib.sha1()
    if command == "reduce-ecd":
        for g in graphs:
            h.update(_run(capsys, [command, g]))
    for k, d in enumerate(diagrams):
        if command == "equal":  # with itself, and with the next diagram
            h.update(_run(capsys, [command, d, d]))
            h.update(_run(capsys, [command, d, diagrams[(k + 1) % len(diagrams)]]))
        elif command == "simulate":
            h.update(_run(capsys, [command, d, "--assign", str(work / "assign.tsv")]))
        elif command != "reduce-ecd":
            h.update(_run(capsys, [command, d]))
    assert h.hexdigest() == DIGESTS[command]
