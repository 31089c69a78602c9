from __future__ import annotations

import itertools
import random

import numpy as np
import pytest

from cpbs.errors import MissingAssignment
from cpbs.quantum import (
    GateAssignment,
    MatrixLabel,
    gamma,
    interpret,
    isometry_defect,
    quantum_matrix,
)
from cpbs.randgen import random_diagram
from cpbs.semantics import semantics_table
from cpbs.terms import (
    Colour,
    Par,
    Trace,
    gate_h,
    gate_t,
    gate_v,
    ident,
    merge_vh,
    pbs4,
    seq,
    split_vh,
    swap,
)

T, V, H = Colour.T, Colour.V, Colour.H


def label_product(word: tuple, dim: int) -> np.ndarray:
    """Product of MatrixLabel letters in trajectory order."""
    out = np.eye(dim, dtype=complex)
    for label in word:
        out = label.matrix @ out
    return out


_HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def random_separating_assignment(
    letters: set[str] | list[str], dim: int = 2, seed: int = 0
) -> GateAssignment:
    """Seeded assignment that almost surely separates distinct words.

    Each letter becomes H.diag(1, e^{i theta}) in the top-left 2x2
    block of the dim x dim identity, theta uniform in [0, 2pi).
    """
    if dim < 2:
        raise ValueError("separating assignments need dim >= 2")
    rng = random.Random(seed)
    out: dict[str, np.ndarray] = {}
    for letter in sorted(letters):
        theta = rng.uniform(0.0, 2.0 * np.pi)
        m = np.eye(dim, dtype=complex)
        m[:2, :2] = _HADAMARD @ np.diag([1.0, np.exp(1j * theta)])
        out[letter] = m
    return GateAssignment(dim, out)


X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
I2 = np.eye(2, dtype=complex)


def _random_unitary(rng: random.Random, dim: int) -> np.ndarray:
    z = np.array(
        [[complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(dim)] for _ in range(dim)]
    )
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q @ np.diag(d / np.abs(d))


def test_gamma_trajectory_order():
    g = {"U": X, "V": Z}
    # word (U, V): U applied first, so the product is Z @ X
    assert np.allclose(gamma(("U", "V"), g), Z @ X)
    assert np.allclose(gamma((), g), I2)


def test_identity_diagram_is_identity_matrix():
    t = semantics_table(ident(T))
    m = quantum_matrix(t, GateAssignment(2))
    assert m.shape == (4, 4)
    assert np.allclose(m, np.eye(4))


def test_half_switch_blocks():
    d = seq(split_vh(), Par(gate_v("U"), gate_h("V")), merge_vh())
    m = quantum_matrix(semantics_table(d), {"U": X, "V": I2})
    expect = np.zeros((4, 4), dtype=complex)
    expect[0:2, 0:2] = X
    expect[2:4, 2:4] = I2
    assert np.allclose(m, expect)


def test_missing_assignment():
    with pytest.raises(MissingAssignment) as e:
        quantum_matrix(semantics_table(gate_t("W")), {"U": X})
    assert e.value.letter == "W"


@pytest.mark.parametrize("mats", [
    {"U": np.eye(2), "V": np.eye(3)},
    {"U": np.ones((2, 3))},
], ids=["two_sizes", "not_square"])
def test_an_assignment_of_mixed_shapes_is_refused(mats):
    # refused when the assignment is built, before any product is taken
    with pytest.raises(ValueError, match="^assignment matrices must share one dimension$"):
        quantum_matrix(semantics_table(gate_t("U")), mats)


def test_isometry_on_random_diagrams():
    rng = random.Random(7)
    for _ in range(60):
        d = random_diagram(rng, max_generators=8)
        dim = rng.choice([1, 2, 3])
        letters = {"U", "V", "W"}
        g = GateAssignment(dim, {u: _random_unitary(rng, dim) for u in letters})
        m = quantum_matrix(semantics_table(d), g)
        assert isometry_defect(m) <= 1e-8


def test_interpret_gate_product():
    d = gate_t("UV")
    out = interpret(d, {"U": X, "V": Z})
    (label,) = out.word
    assert isinstance(label, MatrixLabel)
    assert np.allclose(label.matrix, Z @ X)
    (eps_label,) = interpret(gate_t(""), {"U": X}).word
    assert np.allclose(eps_label.matrix, I2)


def test_interpret_commutes_with_evaluation():
    rng = random.Random(21)
    for _ in range(40):
        d = random_diagram(rng, max_generators=6)
        g = {u: _random_unitary(rng, 2) for u in ("U", "V", "W")}
        t = semantics_table(d)
        ti = semantics_table(interpret(d, g))
        assert set(t.entries) == set(ti.entries)
        for c, (c2, w) in t.entries.items():
            c2i, labels = ti.entries[c]
            assert c2i == c2
            assert np.allclose(label_product(labels, 2), gamma(w, g), atol=1e-9)


def test_switch_distinguishes_anticommuting_oracles():
    switch = Trace(T, seq(pbs4(), Par(gate_t("U"), gate_t("V")), swap(T, T), pbs4()))
    m = quantum_matrix(semantics_table(switch), {"U": X, "V": Z})
    plus = np.array([1, 0, 1, 0], dtype=complex) / np.sqrt(2)  # |+> (x) |0>
    out = m @ plus
    zx0 = (Z @ X) @ np.array([1, 0], dtype=complex)
    minus_expected = np.concatenate([zx0, -zx0]) / np.sqrt(2)
    assert np.allclose(out, minus_expected, atol=1e-9)


def test_equal_tables_equal_matrices():
    folded = Trace(T, seq(pbs4(), Par(gate_t("U"), gate_t("V")), pbs4()))
    unfolded = seq(split_vh(), Par(gate_v("U"), gate_h("V")), merge_vh())
    g = random_separating_assignment({"U", "V"}, seed=3)
    m1 = quantum_matrix(semantics_table(folded), g)
    m2 = quantum_matrix(semantics_table(unfolded), g)
    assert np.max(np.abs(m1 - m2)) <= 1e-9


def test_separating_assignment_determinism_and_unitarity():
    a = random_separating_assignment({"U", "V"}, seed=11)
    b = random_separating_assignment({"U", "V"}, seed=11)
    assert a.dim == 2
    for u in ("U", "V"):
        assert np.array_equal(a.map[u], b.map[u])
        assert isometry_defect(a.map[u]) <= 1e-9
    c = random_separating_assignment({"U"}, dim=3, seed=5)
    assert c.map["U"].shape == (3, 3)
    assert isometry_defect(c.map["U"]) <= 1e-9


def test_separating_assignment_separates_short_words():
    words = [
        w
        for n in (1, 2, 3, 4)
        for w in itertools.product("UV", repeat=n)
    ]
    assert len(words) == 30
    good = 0
    for seed in range(100):
        g = random_separating_assignment({"U", "V"}, seed=seed)
        mats = [gamma(w, g) for w in words]
        ok = all(
            np.max(np.abs(mats[i] - mats[j])) > 1e-6
            for i in range(len(mats))
            for j in range(i + 1, len(mats))
        )
        good += ok
    assert good >= 99
