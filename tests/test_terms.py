from __future__ import annotations

import copy
import hashlib
import inspect
import itertools
import pickle
from dataclasses import FrozenInstanceError, dataclass

import numpy as np
import pytest

import cpbs.semantics
from cpbs import gallery
from cpbs.errors import InvalidDecomposition
from cpbs.hardness import CycleDecomposition, diagram_from_decomposition, parse_graph
from cpbs.netlist import to_netlist
from cpbs.quantum import interpret
from cpbs.randgen import random_diagram
from cpbs.rewrite import find_matches
from cpbs.rules import RULES
from cpbs.terms import (
    _ACTION,
    _FIXED_TYPES,
    Colour,
    Empty,
    Gen,
    Par,
    Seq,
    Trace,
    as_word,
    configurations,
    count_generators,
    count_neg,
    count_pbs,
    count_queries,
    gate_h,
    gate_t,
    gate_v,
    generators,
    ident,
    identity_of,
    letter_counts,
    letters_of,
    merge_hv,
    merge_vh,
    neg_hv,
    neg_t,
    neg_vh,
    par,
    pbs4,
    pbs_ht_ht,
    pbs_th_th,
    pbs_tv_vt,
    pbs_vt_tv,
    perm,
    seq,
    split_hv,
    split_vh,
    swap,
    term_size,
    type_of,
)

T, V, H = Colour.T, Colour.V, Colour.H


def test_word_coercion():
    assert as_word("UVU") == ("U", "V", "U")
    assert as_word("") == ()
    assert as_word("U.phase2.U") == ("U", "phase2", "U")
    assert as_word("U1") == ("U1",)
    assert as_word(("Ua", "Ub")) == ("Ua", "Ub")
    with pytest.raises(ValueError):
        as_word("2U")
    with pytest.raises(ValueError):
        as_word(("ok", "not ok"))


def test_generator_signatures():
    assert type_of(pbs4()) == ((T, T), (T, T))
    assert type_of(pbs_tv_vt()) == ((T, V), (V, T))
    assert type_of(pbs_vt_tv()) == ((V, T), (T, V))
    assert type_of(pbs_ht_ht()) == ((H, T), (H, T))
    assert type_of(pbs_th_th()) == ((T, H), (T, H))
    assert type_of(split_vh()) == ((T,), (V, H))
    assert type_of(split_hv()) == ((T,), (H, V))
    assert type_of(merge_vh()) == ((V, H), (T,))
    assert type_of(merge_hv()) == ((H, V), (T,))
    assert type_of(neg_t()) == ((T,), (T,))
    assert type_of(neg_vh()) == ((V,), (H,))
    assert type_of(neg_hv()) == ((H,), (V,))
    assert type_of(gate_t("U")) == ((T,), (T,))
    assert type_of(gate_v("U")) == ((V,), (V,))
    assert type_of(gate_h("U")) == ((H,), (H,))
    assert type_of(swap(V, H)) == ((V, H), (H, V))
    assert type_of(ident(T)) == ((T,), (T,))
    assert type_of(Empty()) == ((), ())


# the signature table as it was written out before it was read off the actions
_SIGNATURES = {
    "pbs4": ((T, T), (T, T)),
    "pbs_tv_vt": ((T, V), (V, T)),
    "pbs_vt_tv": ((V, T), (T, V)),
    "pbs_ht_ht": ((H, T), (H, T)),
    "pbs_th_th": ((T, H), (T, H)),
    "split_vh": ((T,), (V, H)),
    "split_hv": ((T,), (H, V)),
    "merge_vh": ((V, H), (T,)),
    "merge_hv": ((H, V), (T,)),
    "neg_t": ((T,), (T,)),
    "neg_vh": ((V,), (H,)),
    "neg_hv": ((H,), (V,)),
    "gate_t": ((T,), (T,)),
    "gate_v": ((V,), (V,)),
    "gate_h": ((H,), (H,)),
}


def test_signatures_are_read_off_the_actions():
    assert _FIXED_TYPES == _SIGNATURES
    for ins, outs in _FIXED_TYPES.values():
        assert type(ins) is type(outs) is tuple
        assert all(type(c) is Colour for c in ins + outs)
    assert cpbs.semantics._ACTION is _ACTION


def test_composite_types():
    d = Seq(split_vh(), Par(gate_v("U"), gate_h("V")))
    assert type_of(d) == ((T,), (V, H))
    tr = Trace(T, Seq(pbs4(), pbs4()))
    assert type_of(tr) == ((T,), (T,))


def test_type_errors_name_the_subterm():
    bad = Seq(split_vh(), merge_hv())
    with pytest.raises(TypeError) as e:
        type_of(bad)
    assert "merge_hv" in str(e.value)
    with pytest.raises(TypeError):
        type_of(Trace(V, gate_h("U")))
    with pytest.raises(TypeError):
        type_of(Trace(T, split_vh()))


def test_type_errors_on_long_chains_stay_short():
    chain = seq(*[gate_t("U")] * 5000)
    with pytest.raises(TypeError) as e:
        type_of(Seq(chain, merge_vh()))
    assert "merge_vh" in str(e.value)
    assert len(str(e.value)) < 200
    with pytest.raises(TypeError) as e:
        type_of(Trace(V, chain))
    assert len(str(e.value)) < 200


def test_gen_validation():
    with pytest.raises(ValueError):
        Gen("pbs4", word=("U",))
    with pytest.raises(ValueError):
        Gen("id", colours=(T, V))
    with pytest.raises(ValueError):
        Gen("frobnicate")
    # a colour is checked by equality, so its plain letter passes
    assert Gen("swap", colours=("T", "V")) == swap(T, V)


def test_wiring_leaves_are_shared_values():
    # a Gen is frozen, so one object per colour, and per pair of colours, serves every wire
    for c in (T, V, H):
        assert ident(c) is ident(c)
        assert ident(c) == Gen("id", colours=(c,))
        for c2 in (T, V, H):
            assert swap(c, c2) is swap(c, c2)
            assert swap(c, c2) == Gen("swap", colours=(c, c2))
    assert len({id(ident(c)) for c in (T, V, H)}) == 3
    assert len({id(swap(a, b)) for a in (T, V, H) for b in (T, V, H)}) == 9
    assert gate_t("U") is not gate_t("U")  # gates are still built per call


def test_configuration_order():
    assert configurations((T,)) == [(V, 0), (H, 0)]
    assert configurations((V, T, H)) == [(V, 0), (V, 1), (H, 1), (H, 2)]
    assert configurations(()) == []


def test_counts():
    d = seq(
        split_vh(),
        par(gate_v("UVU"), gate_h("V")),
        par(gate_v(""), ident(H)),
        par(neg_vh(), ident(H)),
    )
    assert type_of(d) == ((T,), (H, H))
    assert count_queries(d, "U") == 2
    assert count_queries(d, "V") == 2
    assert count_queries(d, "W") == 0
    assert count_pbs(d) == 1
    assert count_neg(d) == 1
    assert count_generators(d) == 5
    assert letters_of(d) == {"U", "V"}
    assert letter_counts(d) == {"U": 2, "V": 2}
    assert term_size(seq(gate_t("UVW"), neg_t())) == 4


def test_identity_of():
    assert isinstance(identity_of(()), Empty)
    assert type_of(identity_of((T, V))) == ((T, V), (T, V))


def test_operator_sugar():
    d = split_vh() >> (gate_v("U") | gate_h("U"))
    assert isinstance(d, Seq)
    assert type_of(d) == ((T,), (V, H))


COMPOSITES = [
    Seq(split_vh(), par(gate_v("U"), gate_h("V"))),
    Par(ident(T), Trace(V, swap(V, V))),
    Trace(T, seq(pbs4(), par(gate_t("UV"), ident(T)), pbs4())),
    gate_v("UVU"),
    perm((T, V, H), (2, 0, 1)),
    ident(T),
    Empty(),
]


@pytest.mark.parametrize("d", COMPOSITES, ids=["Seq", "Par", "Trace", "gate", "perm", "ident", "Empty"])
def test_composites_are_frozen_slotted_values(d):
    assert not hasattr(d, "__dict__")
    for name in type(d).__slots__:
        with pytest.raises(FrozenInstanceError):
            setattr(d, name, ident(T))
        with pytest.raises(FrozenInstanceError):
            delattr(d, name)
    with pytest.raises(FrozenInstanceError):
        d.extra = 1
    for twin in (copy.copy(d), copy.deepcopy(d), pickle.loads(pickle.dumps(d))):
        assert type(twin) is type(d)
        assert twin == d
        assert hash(twin) == hash(d)


@dataclass(frozen=True)
class GenRecord:
    """Gen as the frozen dataclass it was: the reference for its value semantics."""

    kind: str
    word: tuple = ()
    colours: tuple = ()
    slots: tuple = ()


def _leaf_sample() -> list[Gen]:
    """Generators from the gallery, 200 random draws, both sides of every rule
    (words of WVars) and one interpreted diagram (words of MatrixLabels), one
    entry per object."""
    terms = [f() for _, f in inspect.getmembers(gallery, inspect.isfunction)
             if f.__module__ == gallery.__name__ and not inspect.signature(f).parameters]
    terms += (random_diagram(s) for s in range(200))
    terms += (side for r in RULES.values() for side in (r.lhs, r.rhs))
    pauli = {"U": np.array([[0, 1], [1, 0]]), "V": np.array([[1, 0], [0, -1]])}
    terms.append(interpret(gallery.three_query_circuit(), pauli))
    return list({id(g): g for d in terms for g in generators(d)}.values())


def test_gens_are_the_values_the_dataclass_was():
    sample = _leaf_sample()
    assert {"WVar", "MatrixLabel"} <= {type(w).__name__ for g in sample for w in g.word}
    records = [GenRecord(g.kind, g.word, g.colours, g.slots) for g in sample]
    for g, r in zip(sample, records):
        assert repr(g) == repr(r).replace("GenRecord(", "Gen(", 1)
        assert hash(g) == hash(r)
    for (g1, r1), (g2, r2) in itertools.combinations(zip(sample, records), 2):
        assert (g1 == g2) is (r1 == r2)
    assert Empty() == Empty() and hash(Empty()) == hash(()) and repr(Empty()) == "Empty()"
    assert Empty() != ident(T) and ident(T) != Empty()


# SHA-1 of repr(random_diagram(s)) for s = 0..499, taken when Seq, Par and
# Trace were frozen dataclasses: the slotted nodes build and print the same terms
RANDOM_REPRS_DIGEST = "c908cd367eb0eea05c315bb09c6a788e6ef097de"


def test_random_diagrams_build_and_print_as_before():
    digest = hashlib.sha1()
    for s in range(500):
        digest.update(repr(random_diagram(s)).encode())
    assert digest.hexdigest() == RANDOM_REPRS_DIGEST


# public-input checks that no other test reaches: the type and message of
# each refusal, and what the empty compositions return
@pytest.mark.parametrize("call, want", [
    (lambda: as_word(3), (ValueError, "cannot read word from 3")),
    (lambda: Gen("id", colours=(Colour.T,), slots=(0,)), (ValueError, "id takes no slots")),
    (lambda: Gen("perm", colours=(Colour.T, Colour.T), slots=(0, 0)),
     (ValueError, "perm takes no word and slots permuting its 2 wires")),
    (lambda: Gen("id", colours=("X",)), (ValueError, "id wires are coloured T, V or H, not 'X'")),
    (lambda: Gen("perm", colours=(Colour.T, "Q"), slots=(1, 0)),
     (ValueError, "perm wires are coloured T, V or H, not 'Q'")),
    (lambda: find_matches(to_netlist(gate_v("U")), "AX1", "X"),
     (ValueError, "direction must be L2R or R2L, not 'X'")),
    (lambda: diagram_from_decomposition(parse_graph("A A"), CycleDecomposition(((),))),
     (InvalidDecomposition, "empty cycle")),
    (lambda: seq(), Empty()),
    (lambda: par(), Empty()),
], ids=["as_word", "id_slots", "perm_slots", "id_colour", "perm_colour", "direction", "empty_cycle", "seq", "par"])
def test_public_input_checks(call, want):
    if isinstance(want, tuple):
        with pytest.raises(want[0]) as e:
            call()
        assert (type(e.value), str(e.value)) == want
    else:
        assert call() == want
