"""The reference job: fixed pure-Python work that uses nothing of cpbs.

Its time measures the machine's speed at a moment.  It lives apart from
run.py so that a fresh interpreter can time it without loading the
benchmark.
"""

from __future__ import annotations

import random


def reference_job() -> int:
    """A fixed pure-Python job that uses nothing of cpbs: build a seeded
    binary tree of 8,192 leaves, tally its leaves, print it as text and
    split the text up again."""
    rng = random.Random(0)

    def build(depth):
        if depth == 0:
            return (rng.choice("UVW"), rng.randrange(4))
        return (build(depth - 1), build(depth - 1))

    def count(node, tally):
        if isinstance(node[0], str):
            tally[node] = tally.get(node, 0) + 1
            return 1
        return count(node[0], tally) + count(node[1], tally)

    def show(node):
        if isinstance(node[0], str):
            return f"{node[0]}{node[1]}"
        return f"({show(node[0])} ; {show(node[1])})"

    tree = build(13)
    tally: dict = {}
    return count(tree, tally) + len(show(tree).split(" ; ")) + len(tally)
