"""The library behaves the same under ``python -O``.

`src/cpbs` holds no `assert` statement, so compiling asserts away
changes nothing in it: every check raises in both modes.
"""

import ast
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import cpbs

SRC = Path(cpbs.__file__).resolve().parent


def test_library_holds_no_assert():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == [], f"assert statements vanish under python -O: {', '.join(found)}"


def test_orientation_and_alignment_checks_raise_under_optimised_python():
    # an incidence list missing an edge breaks the Eulerian circuit, and a
    # block walk of another length or direction cannot align with a staircase
    script = textwrap.dedent(
        """
        import cpbs.hardness as hardness
        import cpbs.stairs as stairs
        from cpbs.errors import InvalidDecomposition
        from cpbs.terms import Colour

        def run(call, error):
            try:
                call()
            except error as e:
                print("raised:", e)
            else:
                print("returned")

        real = hardness._incidence
        for name in ("triangle", "square", "bowtie", "k5"):
            g = hardness.corpus()[name]
            hardness._incidence = lambda g: {
                v: [(i, y) for i, y in arcs if i != 0] for v, arcs in real(g).items()}
            run(lambda: hardness.orient_eulerian(g), InvalidDecomposition)
            hardness._incidence = real
        edge = (Colour.V, 0, Colour.V, 0)
        run(lambda: stairs._align([], [(edge, True)]), AssertionError)
        run(lambda: stairs._align([(edge, True)], [(edge, False)]), AssertionError)
        """
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC.parent), os.environ.get("PYTHONPATH", "")])}
    lines = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    ).stdout.splitlines()
    assert [line.startswith("raised: cycle breaks between ") for line in lines[:4]] == [True] * 4, lines
    assert lines[4:] == [
        "raised: walk shapes differ",
        "raised: block walk and staircase walk disagree",
    ]
