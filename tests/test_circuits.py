"""Circuit IR validation, text serialization, and Gaussian interpretation."""

import copy
import inspect
import math
import operator
import pickle
from itertools import combinations
from operator import attrgetter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_gaussian_state
from oracles import dense_map, is_unitary, schur_condition, step_run

from cvrep import gaussian as g
from cvrep.codes import EdgeBasis, ErasurePattern, StabilizerCode, build_five_mode_code, build_general_code, edge_basis
from cvrep.gaussian import MeasurementRecord, SymplecticMap
from cvrep.homology import ChainComplex, FaceTable, chain_complex, face_table
from cvrep.replication import (
    CausalDiamond,
    Configuration,
    SpacetimePoint,
    ValidationReport,
    Violation,
    builtin_configuration,
    validate,
)
from cvrep.tolerances import Tolerances
from cvrep.circuits import (
    BeamSplitterPM,
    Circuit,
    CircuitParseError,
    Discard,
    Displace,
    ERASURE_TAGS,
    FeedforwardDisplace,
    Fourier,
    InverseFourier,
    Measure,
    PhaseShift,
    Pi,
    Qnd,
    SqueezeFactor,
    Swap,
    TwoModeSqueeze,
    decoder_matrix,
    ideal_decoder,
    ideal_encoder,
    op_map,
    parse,
    run,
    serialize,
    symplectic_of,
)
from cvrep.circuits.interpreter import RunResult, _fold
from cvrep.circuits.recovery import SweepResult, SweepSpec, fidelity_sweep
from cvrep.circuits import ir
from cvrep.circuits.ir import NONZERO, OPS, QUADRATURE, REAL, REGISTER, WIRE

SQRT2 = math.sqrt(2.0)


# ---------------------------------------------------------------------------
# IR construction and validation
# ---------------------------------------------------------------------------


def test_ops_are_immutable_and_typed():
    op = Qnd(5, 4, -2.0)
    assert (op.control, op.target, op.gain) == (5, 4, -2.0)
    with pytest.raises(AttributeError):
        op.gain = 1.0


def test_circuit_tracks_wires_and_registers():
    circuit = Circuit(
        labels=(1, 2, 3),
        ops=(
            Qnd(1, 2, 1.0),
            Measure(2, "x", "m1"),
            FeedforwardDisplace("m1", 3, "x", 0.5),
            Discard(1),
        ),
    )
    assert circuit.n_modes == 3
    assert not is_unitary(circuit)
    assert run(circuit, g.vacuum(3), average=True).labels == (3,)
    assert len(circuit) == 4


def test_circuit_rejects_use_of_a_measured_wire():
    with pytest.raises(ValueError):
        Circuit(labels=(1, 2), ops=(Measure(1, "x", "m"), Qnd(1, 2, 1.0)))


def test_circuit_rejects_use_of_a_discarded_wire():
    with pytest.raises(ValueError):
        Circuit(labels=(1, 2), ops=(Discard(2), PhaseShift(2, 0.3)))


def test_circuit_rejects_feedforward_from_an_unwritten_register():
    with pytest.raises(ValueError):
        Circuit(labels=(1,), ops=(FeedforwardDisplace("never", 1, "x", 1.0),))


def test_circuit_rejects_unknown_wires():
    with pytest.raises(ValueError):
        Circuit(labels=(1, 2), ops=(Qnd(1, 7, 1.0),))


def test_circuit_rejects_duplicate_labels():
    with pytest.raises(ValueError):
        Circuit(labels=(1, 1), ops=())


def test_squeeze_factor_rejects_zero():
    with pytest.raises(ValueError):
        SqueezeFactor(1, 0.0)


_TEXT_FIELDS = {"basis": "x", "reg": "m", "quad": "p"}


def make_op(spec, wires, reals, **text):
    """An op of ``spec``'s type from its wire and real field values, in field order.

    Its text fields take the value ``text`` gives under their key, or a valid one.
    """
    wires, reals = iter(wires), iter(reals)
    text = {**_TEXT_FIELDS, **text}
    return spec.make(
        *(
            next(wires) if kind is WIRE else next(reals) if kind.read is float else text[key]
            for key, _, kind in spec.fields
        )
    )


def n_wires(spec) -> int:
    return sum(kind is WIRE for _, _, kind in spec.fields)


def n_reals(spec) -> int:
    return sum(kind.read is float for _, _, kind in spec.fields)


NON_FINITE_CASES = [
    pytest.param(spec, i, bad, id=f"{spec.tag}-{key}-{bad}")
    for spec in OPS.values()
    for i, key in enumerate(key for key, _, kind in spec.fields if kind.read is float)
    for bad in (math.inf, math.nan)
]


@pytest.mark.parametrize("spec, i, bad", NON_FINITE_CASES)
def test_every_real_field_rejects_non_finite_values(spec, i, bad):
    reals = [0.5] * n_reals(spec)
    make_op(spec, (1, 2), reals)
    reals[i] = bad
    with pytest.raises(ValueError, match="finite"):
        make_op(spec, (1, 2), reals)


REPEATED_WIRE_CASES = [
    pytest.param(spec, i, j, id=f"{spec.tag}-{first}-{second}")
    for spec in OPS.values()
    for (i, first), (j, second) in combinations(
        enumerate(key for key, _, kind in spec.fields if kind is WIRE), 2
    )
]


def test_the_repeated_wire_cases_cover_every_multi_wire_op():
    tags = {case.values[0].tag for case in REPEATED_WIRE_CASES}
    assert tags == {spec.tag for spec in OPS.values() if n_wires(spec) > 1}
    assert tags >= {"QND", "BS", "SWAP", "TMS"}


@pytest.mark.parametrize("spec, i, j", REPEATED_WIRE_CASES)
def test_every_multi_wire_op_rejects_a_repeated_wire(spec, i, j):
    wires = list(range(1, n_wires(spec) + 1))
    reals = [0.5] * n_reals(spec)
    make_op(spec, wires, reals)
    wires[j] = wires[i]
    with pytest.raises(ValueError, match="must differ"):
        make_op(spec, wires, reals)


BAD_TEXT_CASES = [
    pytest.param(spec, key, bad, id=f"{spec.tag}-{key}")
    for spec in OPS.values()
    for key, _, kind in spec.fields
    for text_kind, bad in ((QUADRATURE, "q"), (REGISTER, "2bad"))
    if kind is text_kind
]


@pytest.mark.parametrize("spec, key, bad", BAD_TEXT_CASES)
def test_every_basis_quadrature_and_register_field_rejects_a_bad_value(spec, key, bad):
    # by construction and by parsing; a feedforward's register was once unchecked
    reals = [0.5] * n_reals(spec)
    good = spec.line(make_op(spec, (1, 2), reals))
    with pytest.raises(ValueError, match="must be"):
        make_op(spec, (1, 2), reals, **{key: bad})
    line = good.replace(f" {key}={_TEXT_FIELDS[key]}", f" {key}={bad}")
    assert line != good
    with pytest.raises(CircuitParseError, match="^line 1: .* must be "):
        parse(line)


def test_measure_register_names_are_identifiers():
    with pytest.raises(ValueError):
        Measure(1, "x", "2bad name")
    with pytest.raises(ValueError):
        Measure(1, "q", "m1")


# each field kind's invalid value and the words of its ValueError
_BAD = {
    REAL: (math.inf, "must be finite"),
    NONZERO: (0.0, "must be finite and nonzero"),
    QUADRATURE: ("q", "must be 'x' or 'p'"),
    REGISTER: ("2bad", "must be an identifier"),
}


def _other(value):
    """A valid argument that differs from ``value``, of its type."""
    if isinstance(value, str):
        return {"x": "p", "p": "x"}.get(value, value + "2")
    return value + 10 if isinstance(value, int) else value + 1


@pytest.mark.parametrize("spec", OPS.values(), ids=lambda spec: spec.tag)
def test_every_op_type_is_an_immutable_value(spec):
    # what each op type promises, read off its row: construction by position
    # and by keyword, each field's check and its message, == and hash over
    # (type, fields), repr, no assignment or deletion, and copies and pickles
    # that are equal ops of the same type
    cls, name = spec.cls, spec.cls.__name__
    op = make_op(spec, (1, 2), (0.5, -1.25))
    names = list(inspect.signature(cls).parameters)
    args = [getattr(op, key) for key in names]
    assert type(op) is OPS[type(op)].cls is cls
    assert getattr(ir, name) is cls and cls.__module__ == "cvrep.circuits.ir"
    assert cls(*args) == op and cls(**dict(zip(names, args))) == op
    assert repr(op) == f"{name}({', '.join(f'{key}={value!r}' for key, value in zip(names, args))})"

    same = cls(*args)
    assert same is not op and same == op and not same != op and hash(same) == hash(op)
    assert op != tuple(args) and op.__eq__(tuple(args)) is NotImplemented
    kinds = {attr: kind for _, attr, kind in spec.fields}
    for i, value in enumerate(args):
        changed = cls(*args[:i], _other(value), *args[i + 1:])
        assert changed != op and not changed == op
        if isinstance(value, (float, complex)) and kinds.get(names[i]) is not NONZERO:
            zero = type(value)(0.0)
            plus, minus = (cls(*args[:i], sign * zero, *args[i + 1:]) for sign in (1.0, -1.0))
            assert plus == minus and hash(plus) == hash(minus)

    row = [attrgetter(attr)(op) for _, attr, _ in spec.fields]
    first_wire = None
    for i, (_, attr, kind) in enumerate(spec.fields):
        if kind is WIRE and first_wire is None:
            first_wire = attr, row[i]
            continue
        if kind is WIRE:
            bad, message = first_wire[1], f"{name}.{attr} must differ from {name}.{first_wire[0]}, got {first_wire[1]!r}"
        elif cls is Displace:
            bad, message = _BAD[kind][0], "displacement amplitude must be finite"
        else:
            bad, must = _BAD[kind]
            message = f"{name}.{attr} {must}, got {bad!r}"
        with pytest.raises(ValueError) as raised:
            spec.make(*row[:i], bad, *row[i + 1:])
        assert str(raised.value) == message

    for key in (*names, "other"):
        with pytest.raises(AttributeError):
            setattr(op, key, args[0])
    for key in names:
        with pytest.raises(AttributeError):
            delattr(op, key)
    assert op == same and [getattr(op, key) for key in names] == args

    pickles = [pickle.loads(pickle.dumps(op, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for clone in (copy.copy(op), copy.deepcopy(op), *pickles):
        assert type(clone) is cls and clone == op and hash(clone) == hash(op) and repr(clone) == repr(op)


@pytest.mark.parametrize(
    "spec", [spec for spec in OPS.values() if spec.cls is not Displace], ids=lambda spec: spec.tag
)
def test_an_op_reports_its_first_bad_field_in_field_order(spec):
    # every field bad at once, by position and by keyword in reverse order:
    # the first field's check fails first; and no argument may be missing,
    # extra or unknown
    bad = {WIRE: (1.5, "must be an integer"), **_BAD}
    values = {attr: bad[kind][0] for _, attr, kind in spec.fields}
    _, attr, kind = spec.fields[0]
    message = f"{spec.cls.__name__}.{attr} {bad[kind][1]}, got {bad[kind][0]!r}"
    for args, kwargs in (((*values.values(),), {}), ((), dict(reversed(values.items())))):
        with pytest.raises(ValueError) as raised:
            spec.cls(*args, **kwargs)
        assert str(raised.value) == message
    good = [attrgetter(attr)(make_op(spec, (1, 2), (0.5, 0.5))) for _, attr, _ in spec.fields]
    for args, kwargs in ((good[:-1], {}), ((*good, 1), {}), (good, {"other": 1}), (good, {attr: good[0]})):
        with pytest.raises(TypeError):
            spec.cls(*args, **kwargs)


def test_a_repeated_wire_is_reported_before_a_later_bad_field():
    # the message names the earlier wire, and the check runs before the
    # checks of the fields after the wire, whatever order the keywords come in
    three = np.int64(3)
    cases = [
        (lambda: Qnd(1, 1, math.inf), "Qnd.target must differ from Qnd.control, got 1"),
        (lambda: Qnd(gain=math.nan, target=2, control=2), "Qnd.target must differ from Qnd.control, got 2"),
        (lambda: TwoModeSqueeze(3, three, math.inf), f"TwoModeSqueeze.b must differ from TwoModeSqueeze.a, got {three!r}"),
    ]
    for make, message in cases:
        with pytest.raises(ValueError) as raised:
            make()
        assert str(raised.value) == message


_A, _B = SpacetimePoint(0, (0,)), SpacetimePoint(1, (0,))
_NAN = math.nan

# every value type built on the ops' base, and one sample of each: (the type,
# its constructor's parameters, the sample's arguments, the defaults of the
# trailing parameters, the sample's repr, a bad argument (position, value and
# the words of its ValueError) or None, and valid arguments that change the
# value, by position)
VALUES = [
    (
        Tolerances,
        "cov_symmetry symplectic_eig_slack symplectic_check rank orthogonality synthesis rewrite causal_slack "
        "condition_limit fidelity_gate",
        (2e-12, 1e-9, 1e-10, 1e-10, 1e-12, 1e-10, 1e-10, 1e-9, 1e8, 1e-8),
        (1e-12, 1e-9, 1e-10, 1e-10, 1e-12, 1e-10, 1e-10, 1e-9, 1e8, 1e-8),
        "Tolerances(cov_symmetry=2e-12, symplectic_eig_slack=1e-09, symplectic_check=1e-10, rank=1e-10, "
        "orthogonality=1e-12, synthesis=1e-10, rewrite=1e-10, causal_slack=1e-09, condition_limit=100000000.0, "
        "fidelity_gate=1e-08)",
        None,
        ((0, 1e-12), (9, 1e-9)),
    ),
    (
        EdgeBasis,
        "N edges",
        (3, ((1, 2), (1, 3), (2, 3))),
        (),
        "EdgeBasis(N=3, edges=((1, 2), (1, 3), (2, 3)))",
        None,
        ((0, 4), (1, ((1, 2),))),
    ),
    (
        StabilizerCode,
        "n_modes x_rows p_rows name",
        (2, [[1, -1]], [[1, 1]], "pair"),
        ("",),
        "StabilizerCode(n_modes=2, x_rows=array([[ 1., -1.]]), p_rows=array([[1., 1.]]), name='pair')",
        (1, [[1, 0]], "do not commute"),
        ((1, [[-1, 1]]), (2, [[2, 2]]), (3, "")),
    ),
    (
        ErasurePattern,
        "erased recovery_vertex",
        (frozenset({0, 2}), 1),
        (None,),
        "ErasurePattern(erased=frozenset({0, 2}), recovery_vertex=1)",
        (0, {"a"}, "invalid literal for int"),
        ((0, frozenset({0})), (1, 2)),
    ),
    (
        SymplecticMap,
        "matrix displacement",
        ([[2.0, 0.0], [0.0, 0.5]], [0.0, 1.0]),
        (),
        "SymplecticMap(matrix=array([[2. , 0. ],\n       [0. , 0.5]]), displacement=array([0., 1.]))",
        (0, [[2.0, 0.0], [0.0, 2.0]], "not symplectic"),
        ((0, [[0.5, 0.0], [0.0, 2.0]]), (1, [0.0, -1.0])),
    ),
    (
        MeasurementRecord,
        "mode basis outcome",
        (1, "p", -0.5),
        (),
        "MeasurementRecord(mode=1, basis='p', outcome=-0.5)",
        (1, "q", "basis must be 'x' or 'p'"),
        ((0, 2), (1, "x"), (2, 0.5)),
    ),
    (
        FaceTable,
        "shape faces signs",
        ((1, 3), np.zeros((3, 1), dtype=int), np.ones((3, 1), dtype=int)),
        (),
        "FaceTable(shape=(1, 3), faces=array([[0],\n       [0],\n       [0]]), "
        "signs=array([[1],\n       [1],\n       [1]]))",
        (0, (0, 3), "face ranks must lie in"),
        ((0, (2, 3)), (2, -np.ones((3, 1), dtype=int))),
    ),
    (
        ChainComplex,
        "N boundary",
        (3, {k: face_table(3, k) for k in (0, 1, 2)}),
        (),
        "ChainComplex(N=3, boundary={0: FaceTable(shape=(1, 3), faces=array([[0],\n       [0],\n       [0]]), "
        "signs=array([[1],\n       [1],\n       [1]])), 1: FaceTable(shape=(3, 3), faces=array([[1, 0],\n"
        "       [2, 0],\n       [2, 1]]), signs=array([[ 1, -1],\n       [ 1, -1],\n       [ 1, -1]])), "
        "2: FaceTable(shape=(3, 1), faces=array([[2, 1, 0]]), signs=array([[ 1, -1,  1]]))})",
        (1, {0: face_table(3, 0), 1: face_table(3, 1), 2: FaceTable((3, 1), np.array([[2, 1, 0]]), np.ones((1, 3)))},
         "not a chain complex"),
        ((0, 4), (1, {k: FaceTable(t.shape, t.faces, -t.signs) for k, t in chain_complex(3).boundary.items()})),
    ),
    (
        SpacetimePoint,
        "t x",
        (0, (1, -2)),
        (),
        "SpacetimePoint(t=0.0, x=(1.0, -2.0))",
        (0, True, "coordinate 0 must be a number"),
        ((0, 1), (1, (1, 2))),
    ),
    (
        CausalDiamond,
        "y z",
        (_A, _B),
        (),
        "CausalDiamond(y=SpacetimePoint(t=0.0, x=(0.0,)), z=SpacetimePoint(t=1.0, x=(0.0,)))",
        (1, SpacetimePoint(1, (2,)), "entry must causally precede its exit"),
        ((1, SpacetimePoint(2, (0,))),),
    ),
    (
        Configuration,
        "start diamonds",
        (_A, (CausalDiamond(_A, _B), CausalDiamond(_B, SpacetimePoint(2, (1,))))),
        (),
        "Configuration(start=SpacetimePoint(t=0.0, x=(0.0,)), diamonds=(CausalDiamond(y=SpacetimePoint(t=0.0, "
        "x=(0.0,)), z=SpacetimePoint(t=1.0, x=(0.0,))), CausalDiamond(y=SpacetimePoint(t=1.0, x=(0.0,)), "
        "z=SpacetimePoint(t=2.0, x=(1.0,)))))",
        (1, (CausalDiamond(_A, _B),), "at least two diamonds"),
        ((0, _B), (1, (CausalDiamond(_A, _B),) * 2)),
    ),
    (
        Violation,
        "kind diamonds",
        ("unrelated-pair", (1, 2)),
        (),
        "Violation(kind='unrelated-pair', diamonds=(1, 2))",
        None,
        ((0, "start-unreachable"), (1, (1, 3))),
    ),
    (
        ValidationReport,
        "violations",
        ((Violation("start-unreachable", (2,)),),),
        (),
        "ValidationReport(violations=(Violation(kind='start-unreachable', diamonds=(2,)),))",
        None,
        ((0, ()),),
    ),
    (
        RunResult,
        "state records labels",
        (g.vacuum(1), {"m": g.MeasurementRecord(1, "x", 0.25)}, (1,)),
        (),
        "RunResult(state=GaussianState(n_modes=1), records={'m': MeasurementRecord(mode=1, basis='x', outcome=0.25)}, "
        "labels=(1,))",
        None,
        ((0, g.coherent(0.5)), (1, {}), (2, (2,))),
    ),
    (
        Circuit,
        "labels ops",
        ((1, 2), (Swap(1, 2),)),
        ((),),
        "Circuit(labels=(1, 2), ops=(Swap(a=1, b=2),))",
        (1, (Swap(1, 3),), "references wire 3"),
        ((0, (1, 2, 3)), (1, ())),
    ),
    (
        SweepSpec,
        "r_min r_max steps errors alpha",
        (0.5, 1.5, 3, ("E2", "E4"), 0.25j),
        (0.0, 2.0, 9, ("E1", "E2", "E3", "E4"), 0j),
        "SweepSpec(r_min=0.5, r_max=1.5, steps=3, errors=('E2', 'E4'), alpha=0.25j)",
        (2, 0, "steps must be >= 1"),
        ((0, 0.0), (1, 2.0), (2, 4), (3, ("E2",)), (4, 0j)),
    ),
    (
        SweepResult,
        "r simulated formula row_max_abs_dev max_abs_dev",
        (np.array([0.0, 1.0]), np.array([[1.0, _NAN], [0.5, _NAN]]), np.array([[1.0, 1.0], [0.5, 0.5]]),
         np.array([0.0, 0.0]), 0.0),
        (),
        "SweepResult(r=array([0., 1.]), simulated=array([[1. , nan],\n       [0.5, nan]]), "
        "formula=array([[1. , 1. ],\n       [0.5, 0.5]]), row_max_abs_dev=array([0., 0.]), max_abs_dev=0.0)",
        None,
        ((0, np.array([0.0])), (1, np.array([[1.0, _NAN], [_NAN, 0.5]])), (3, np.array([0.0, _NAN])), (4, 1.0)),
    ),
    (
        Displace,
        "mode alpha",
        (1, 0.5 - 0.25j),
        (),
        "Displace(mode=1, alpha=(0.5-0.25j))",
        (1, complex(math.inf, 0.0), "displacement amplitude must be finite"),
        ((0, 2), (1, 0.5j)),
    ),
]
_UNHASHABLE = {StabilizerCode, SymplecticMap, FaceTable, ChainComplex, RunResult, SweepResult}


@pytest.mark.parametrize("cls, names, args, defaults, text, bad, changed", VALUES, ids=[row[0].__name__ for row in VALUES])
def test_every_value_type_is_an_immutable_value(cls, names, args, defaults, text, bad, changed, monkeypatch):
    # construction by position, by keyword and with defaults, no missing or
    # unknown argument, == and hash over (type, fields), the repr, no
    # assignment or deletion, and copies and pickles rebuilt through the
    # constructor, so its checks run again
    names = names.split()
    assert list(inspect.signature(cls).parameters) == names
    value = cls(*args)
    assert repr(value) == text
    assert cls(**dict(zip(names, args))) == value
    required = len(args) - len(defaults)
    assert repr(cls(*args[:required])) == repr(cls(*args[:required], *defaults))
    calls = [((*args, None), {}), (args, {"unknown": None})] + ([(args[: required - 1], {})] if required else [])
    for wrong_args, wrong_kwargs in calls:
        with pytest.raises(TypeError):
            cls(*wrong_args, **wrong_kwargs)

    same = cls(*args)
    assert same is not value and same == value and not same != value
    assert value != tuple(args) and value.__eq__(tuple(args)) is NotImplemented
    if cls in _UNHASHABLE:
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(same) == hash(value)
    for i, other in changed:
        differs = cls(*args[:i], other, *args[i + 1:])
        assert differs != value and not differs == value
    if bad is not None:
        i, wrong, message = bad
        with pytest.raises(ValueError, match=message):
            cls(*args[:i], wrong, *args[i + 1:])

    for key in (*names, "other"):
        with pytest.raises(AttributeError):
            setattr(value, key, args[0])
    for key in names:
        with pytest.raises(AttributeError):
            delattr(value, key)
    assert value == same and repr(value) == text

    built, init = [], cls.__init__

    def counted(self, *a, **k):
        built.append(self)
        init(self, *a, **k)

    monkeypatch.setattr(cls, "__init__", counted)
    pickles = (pickle.loads(pickle.dumps(value, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1))
    clones = [copy.copy(value), copy.deepcopy(value), *pickles]
    assert len(built) == len(clones) and all(map(operator.is_, built, clones))
    for clone in clones:
        assert type(clone) is cls and repr(clone) == text
        assert clone == value
        if cls not in _UNHASHABLE:
            assert hash(clone) == hash(value)


def test_values_with_array_fields_compare_by_shape_and_entries():
    # == on an array field once raised ValueError (the truth value of an
    # array is ambiguous), and face tables, and so chain complexes, compared
    # by identity; a sweep holds nan for the tags outside it
    assert build_five_mode_code() == build_five_mode_code()
    assert build_general_code(5) == build_general_code(5) != build_general_code(6)
    S = SymplecticMap(np.eye(2), np.zeros(2))
    assert S == SymplecticMap(np.eye(2), [0, 0]) != SymplecticMap(np.eye(4), np.zeros(4))
    assert face_table(4, 1) == face_table(4, 1) != face_table(4, 2)
    assert chain_complex(4) == chain_complex(4) != chain_complex(5)
    spec = SweepSpec(steps=3, errors=("E2",))
    sweep = fidelity_sweep(spec)
    assert np.isnan(sweep.simulated).any() and sweep == fidelity_sweep(spec)
    assert sweep != fidelity_sweep(SweepSpec(steps=3, errors=("E3",)))
    assert sweep != fidelity_sweep(SweepSpec(steps=4, errors=("E2",)))
    for value in (build_five_mode_code(), S, face_table(4, 1), chain_complex(4), sweep):
        with pytest.raises(TypeError, match="unhashable"):
            hash(value)


def test_fields_kept_out_of_a_value_are_kept_out():
    # an edge basis's index and a code's blocks are neither compared nor
    # printed; a basis derives its index from its edges, the index survives
    # a copy, and a configuration still caches its causal relations
    basis = edge_basis(4)
    bare = EdgeBasis(basis.N, basis.edges)
    assert bare == basis and hash(bare) == hash(basis) and repr(bare) == repr(basis) and bare.index(2, 4) == 4
    assert bare.index(1, 2) == 0 and bare.signed_unit(4, 3) == (basis.n_edges - 1, -1)
    for clone in (copy.copy(basis), copy.deepcopy(basis), pickle.loads(pickle.dumps(basis))):
        assert clone.index(2, 4) == basis.index(2, 4) == 4
    code = build_five_mode_code()
    assert "_blocks" not in repr(code) and copy.copy(code)._blocks is not code._blocks
    config = builtin_configuration("fig4")
    assert config._causal is config._causal
    assert validate(pickle.loads(pickle.dumps(config))) == validate(config)


def test_an_edge_basis_always_derives_its_index_from_its_edges():
    # a basis once took its index as a private third argument: one given {}
    # was equal to edge_basis(4), yet could index none of its edges
    basis = edge_basis(4)
    with pytest.raises(TypeError):
        EdgeBasis(4, basis.edges, {})
    for equal in (EdgeBasis(4, basis.edges), copy.deepcopy(basis), pickle.loads(pickle.dumps(basis))):
        assert equal == basis and [equal.index(j, k) for j, k in basis.edges] == list(range(basis.n_edges))


@pytest.mark.parametrize("spec", OPS.values(), ids=lambda spec: spec.tag)
def test_every_wire_field_takes_only_an_integer_so_its_text_parses_back(spec):
    # a float or a bool equal to a label once built an op whose text did
    # not parse: Qnd(1.0, 2, 0.5) wrote "QND c=1.0 ..." and Swap(True, 2)
    # "SWAP a=True ..."; a NumPy integer is still a label
    name, reals = spec.cls.__name__, [0.5] * n_reals(spec)
    attrs = [attr for _, attr, kind in spec.fields if kind is WIRE]
    for i, attr in enumerate(attrs):
        for bad in (float(i + 1), np.float64(i + 1), True, np.bool_(True), str(i + 1)):
            wires = [1, 2][: len(attrs)]
            wires[i] = bad
            with pytest.raises(ValueError) as raised:
                make_op(spec, wires, reals)
            assert str(raised.value) == f"{name}.{attr} must be an integer, got {bad!r}"
    # a feedforward reads the register a measurement of wire 3 writes
    before = (Measure(3, "x", "m"),) if spec.cls is FeedforwardDisplace else ()
    texts = set()
    for label in (int, np.int64, np.int32, np.uint8):
        circuit = Circuit((1, 2, 3), (*before, make_op(spec, (label(1), label(2)), reals)))
        texts.add(serialize(circuit))
        assert parse(serialize(circuit)) == circuit
    assert len(texts) == 1


def test_op_types_are_told_apart_and_print_their_fields():
    assert Swap(1, 2) != BeamSplitterPM(1, 2) and BeamSplitterPM(1, 2) != Swap(1, 2)
    assert Fourier(1) != InverseFourier(1) != Pi(1) != Discard(1)
    assert len({Swap(1, 2), BeamSplitterPM(1, 2), Swap(1, 2)}) == 2
    assert repr(Qnd(1, 2, 0.5)) == "Qnd(control=1, target=2, gain=0.5)"
    assert repr(Displace(3, 0.5 - 1.25j)) == "Displace(mode=3, alpha=(0.5-1.25j))"
    assert repr(Measure(2, "p", "m")) == "Measure(mode=2, basis='p', register='m')"
    assert repr(FeedforwardDisplace("m", 1, "x", -0.0)) == "FeedforwardDisplace(register='m', target=1, quad='x', gain=-0.0)"
    assert Qnd(1, 2, -0.0) == Qnd(1, 2, 0.0) and hash(Qnd(1, 2, -0.0)) == hash(Qnd(1, 2, 0.0))


def test_point_transform_lifts_to_a_symplectic_block_pair():
    # each ideal decoder is the point transform x -> A x, so its symplectic
    # map is the block pair diag(A, A^-T)
    for tag in ERASURE_TAGS:
        A = decoder_matrix(tag)
        n = A.shape[0]
        S = symplectic_of(ideal_decoder(tag)).matrix
        np.testing.assert_allclose(S[:n, :n], A, rtol=0, atol=1e-12)
        np.testing.assert_allclose(S[n:, n:], np.linalg.inv(A).T, rtol=0, atol=1e-12)
        assert not S[:n, n:].any() and not S[n:, :n].any()


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_serialize_is_line_oriented_and_readable():
    circuit = Circuit(
        labels=(1, 4, 5),
        ops=(Qnd(5, 4, -2.0), SqueezeFactor(1, 0.5), Measure(4, "x", "m1"),
             FeedforwardDisplace("m1", 5, "x", 1.0)),
    )
    text = serialize(circuit)
    lines = text.splitlines()
    assert lines[0] == "MODES 1 4 5"
    assert lines[1] == "QND c=5 t=4 gain=-2"
    assert lines[2] == "SQ mode=1 factor=0.5"
    assert lines[3] == "MEAS mode=4 basis=x reg=m1"
    assert lines[4] == "FF reg=m1 target=5 quad=x gain=1"


def test_parse_round_trip_covers_every_op_kind():
    circuit = Circuit(
        labels=(1, 2, 3),
        ops=(
            Qnd(1, 2, 0.75),
            BeamSplitterPM(1, 2),
            SqueezeFactor(3, -1.25),
            PhaseShift(2, 0.5),
            Fourier(1),
            InverseFourier(1),
            Pi(2),
            Swap(1, 3),
            Displace(3, 1.5 - 2.5j),
            TwoModeSqueeze(1, 2, 0.3),
            Measure(2, "p", "k"),
            FeedforwardDisplace("k", 3, "p", -0.5),
            Discard(1),
        ),
    )
    assert parse(serialize(circuit)) == circuit


@given(
    gain=st.floats(min_value=-50, max_value=50, allow_nan=False),
    factor=st.floats(min_value=0.01, max_value=40).flatmap(
        lambda m: st.sampled_from([m, -m])
    ),
)
@settings(max_examples=80)
def test_round_trip_is_bit_stable_for_any_parameters(gain, factor):
    circuit = Circuit(labels=(1, 2), ops=(Qnd(2, 1, gain), SqueezeFactor(2, factor)))
    again = parse(serialize(circuit))
    assert again.ops[0].gain == gain
    assert again.ops[1].factor == factor


SIGNED_VALUE_CASES = [
    pytest.param(spec, i, value, id=f"{spec.tag}-{key}-{value!r}")
    for spec in OPS.values()
    for i, key in enumerate(key for key, _, kind in spec.fields if kind.read is float)
    for value in (-0.0, 0.0, -3.0, -0.25)
    if value or spec.cls is not SqueezeFactor  # a squeeze factor is never zero
]


@pytest.mark.parametrize("spec, i, value", SIGNED_VALUE_CASES)
def test_round_trip_keeps_the_sign_of_every_real_field(spec, i, value):
    reals = [0.5] * n_reals(spec)
    reals[i] = value
    op = make_op(spec, (1, 2), reals)
    # the Measure writes the register a feedforward reads
    again = parse(serialize(Circuit((1, 2, 3), (Measure(3, "x", "m"), op)))).ops[1]
    attr = [attr for _, attr, kind in spec.fields if kind.read is float][i]
    got = attrgetter(attr)(again)
    assert got == value and math.copysign(1.0, got) == math.copysign(1.0, value)


def test_parse_accepts_comments_and_blank_lines():
    text = """
    # decoder fragment
    MODES 1 4 5

    QND c=5 t=4 gain=-2   # inline note
    SWAP a=1 b=5
    """
    circuit = parse(text)
    assert circuit.labels == (1, 4, 5)
    assert circuit.ops == (Qnd(5, 4, -2.0), Swap(1, 5))


def test_parse_without_header_infers_contiguous_labels():
    circuit = parse("QND c=1 t=3 gain=2\n")
    assert circuit.labels == (1, 2, 3)


def test_parse_rejects_malformed_input():
    with pytest.raises(CircuitParseError):
        parse("QND c=1 t=2\n")  # missing field
    with pytest.raises(CircuitParseError):
        parse("WIBBLE mode=1\n")
    with pytest.raises(CircuitParseError):
        parse("MODES 1 2\nMODES 1 2\n")
    with pytest.raises(CircuitParseError):
        parse("QND c=1 t=2 gain=banana\n")
    with pytest.raises(CircuitParseError):
        parse("QND c=1 t=2 gain=1\nMODES 1 2\n")  # header not first


@pytest.mark.parametrize(
    "text, message",
    [
        ("MODES 1 2\nQND c=1 t=2\n", "line 2: QND needs gain="),
        ("QND c=1 t=2 gain=1 bogus=3\n", "line 1: QND has no key bogus="),
        ("QND c=1 t=2 gain=1 gain=5\n", "line 1: QND repeats gain="),
        ("MEAS mode=1 basis=x reg=m register=n\n", "line 1: MEAS has no key register="),
        ("DISP mode=1 re=0 im=0 re=1\n", "line 1: DISP repeats re="),
    ],
)
def test_parse_takes_each_key_of_the_op_once_and_no_other(text, message):
    with pytest.raises(CircuitParseError, match=f"^{message}$"):
        parse(text)


def test_parse_surfaces_ir_validation_failures():
    with pytest.raises(ValueError):
        parse("MODES 1 2\nMEAS mode=1 basis=x reg=m\nQND c=1 t=2 gain=1\n")


# ---------------------------------------------------------------------------
# interpreter: op_map and symplectic_of
# ---------------------------------------------------------------------------


def test_empty_circuit_is_the_identity_map():
    S = symplectic_of(Circuit(labels=(1, 2), ops=()))
    np.testing.assert_array_equal(S.matrix, np.eye(4))
    np.testing.assert_array_equal(S.displacement, np.zeros(4))


def _swap(state, i, j):
    """Exchange modes i and j by permuting the state's coordinates."""
    n = state.n_modes
    perm = np.arange(2 * n)
    perm[[i, j, n + i, n + j]] = [j, i, n + j, n + i]
    return g.GaussianState(state.mean[perm], state.cov[np.ix_(perm, perm)])


def reference_gate(state, op):
    """``op`` on wires (1, 2) of ``state``: Swap by permuting coordinates, Pi
    as the half-turn PhaseShift, any other op as its one-op circuit through run."""
    if isinstance(op, Swap):
        return _swap(state, 0, 1)
    if isinstance(op, Pi):
        op = PhaseShift(op.mode, math.pi)
    return run(Circuit((1, 2), (op,)), state).state


GATE_LIBRARY_CASES = [
    (op, lambda s, op=op: reference_gate(s, op))
    for op in (
        BeamSplitterPM(1, 2),
        SqueezeFactor(2, -1.5),
        PhaseShift(1, 0.7),
        Fourier(2),
        InverseFourier(1),
        TwoModeSqueeze(1, 2, 0.4),
        Displace(1, 1 - 1j),
        Pi(2),
        Swap(1, 2),
        Qnd(1, 2, 1.5),
    )
]


@pytest.mark.parametrize("op, gate", GATE_LIBRARY_CASES)
def test_op_map_agrees_with_the_gate_library(op, gate, rng):
    state = random_gaussian_state(rng, 2)
    via_map = op_map(op, (1, 2)).apply(state)
    via_gate = gate(state)
    np.testing.assert_allclose(via_map.mean, via_gate.mean, atol=1e-12)
    np.testing.assert_allclose(via_map.cov, via_gate.cov, atol=1e-12)


def test_gate_library_cases_cover_every_unitary_op():
    unitary = {cls for cls, spec in OPS.items() if spec.unitary}
    assert {type(op) for op, _ in GATE_LIBRARY_CASES} == unitary


@pytest.mark.parametrize("spec", [spec for spec in OPS.values() if not spec.unitary], ids=attrgetter("tag"))
def test_op_map_rejects_every_non_unitary_op(spec):
    with pytest.raises(TypeError, match="no symplectic representation"):
        op_map(make_op(spec, (1, 2), [0.5]), (1, 2))


def test_pi_and_swap_blocks_are_exact():
    S_pi = op_map(Pi(1), (1,)).matrix
    np.testing.assert_array_equal(S_pi, -np.eye(2))
    S_swap = op_map(Swap(1, 2), (1, 2)).matrix
    state = g.tensor(g.coherent(1 + 0j), g.coherent(0 + 2j))
    swapped = g.GaussianState(S_swap @ state.mean, S_swap @ state.cov @ S_swap.T)
    np.testing.assert_array_equal(swapped.mean, g.tensor(g.coherent(2j), g.coherent(1)).mean)


def test_symplectic_of_rejects_non_unitary_circuits():
    circuit = Circuit(labels=(1, 2), ops=(Measure(1, "x", "m"),))
    with pytest.raises(TypeError):
        symplectic_of(circuit)


def test_symplectic_of_respects_label_positions():
    # gain flows control -> target by label, independent of label order
    circuit = Circuit(labels=(4, 1), ops=(Qnd(1, 4, 2.0),))
    S = symplectic_of(circuit).matrix
    # position 0 holds label 4 (target), position 1 holds label 1 (control)
    assert S[0, 1] == 2.0


def test_encoder_point_action_matches_the_share_pattern():
    # On the non-squeezed input coordinates (x_in, and the two ancilla
    # quadratures that carry finite variance) the five x outputs read
    # (x+y, y-x, y-z, z+y, z); remaining coefficients touch only ancilla
    # quadratures whose variance vanishes as e^{-2r}.
    T = symplectic_of(ideal_encoder()).matrix[:5, :]
    x_in = np.eye(10)[0]
    y = T[1] + x_in  # row 2 reads y - x
    z = T[4]  # row 5 reads z
    surviving = [0, 6, 9]  # x_1, p_2, p_5
    for got, want in [
        (T[0], x_in + y),
        (T[2], y - z),
        (T[3], z + y),
    ]:
        np.testing.assert_array_equal(got[surviving], want[surviving])
        # the mismatch lives entirely on squeezed ancilla x coordinates
        mismatch = np.nonzero(got - want)[0]
        assert set(mismatch) <= {1, 2, 3, 4}


# ---------------------------------------------------------------------------
# interpreter: run
# ---------------------------------------------------------------------------


def test_run_executes_unitary_ops_in_order():
    circuit = Circuit(labels=(1, 2), ops=(Displace(1, 1 + 0j), Qnd(1, 2, 2.0)))
    result = run(circuit, g.vacuum(2))
    assert result.labels == (1, 2)
    assert result.state.mean[1] == pytest.approx(2 * SQRT2)


def test_run_checks_the_state_size():
    circuit = Circuit(labels=(1, 2), ops=())
    with pytest.raises(ValueError):
        run(circuit, g.vacuum(3))


def test_run_with_forced_outcome_and_feedforward():
    circuit = Circuit(
        labels=(1, 2),
        ops=(
            Displace(1, 2 + 0j),
            Measure(1, "x", "m"),
            FeedforwardDisplace("m", 2, "x", -0.5),
        ),
    )
    result = run(circuit, g.vacuum(2), forced={"m": 4.0})
    assert result.labels == (2,)
    assert result.records["m"].outcome == 4.0
    assert result.state.mean[0] == pytest.approx(-2.0)
    assert result.state.n_modes == 1
    assert result.labels.index(2) == 0


def test_run_rejects_unknown_forced_registers():
    circuit = Circuit(labels=(1,), ops=(Measure(1, "x", "m"),))
    with pytest.raises(ValueError):
        run(circuit, g.vacuum(1), forced={"nope": 0.0})


def test_run_requires_an_outcome_policy_for_measurements():
    circuit = Circuit(labels=(1,), ops=(Measure(1, "x", "m"),))
    with pytest.raises(ValueError):
        run(circuit, g.vacuum(1))


def test_run_average_policy_uses_the_running_mean():
    circuit = Circuit(labels=(1, 2), ops=(Displace(1, 3 + 0j), Measure(1, "x", "m")))
    result = run(circuit, g.vacuum(2), average=True)
    assert result.records["m"].outcome == pytest.approx(3 * SQRT2)


def test_run_seeded_sampling_is_reproducible():
    circuit = Circuit(labels=(1, 2), ops=(Measure(1, "x", "m"),))
    out_a = run(circuit, g.vacuum(2), rng=np.random.default_rng(5))
    out_b = run(circuit, g.vacuum(2), rng=np.random.default_rng(5))
    assert out_a.records["m"].outcome == out_b.records["m"].outcome


def test_run_discard_drops_the_right_wire():
    circuit = Circuit(labels=(1, 2, 3), ops=(Displace(2, 1 + 1j), Discard(1)))
    result = run(circuit, g.vacuum(3))
    assert result.labels == (2, 3)
    assert result.state.mean[0] == pytest.approx(SQRT2)
    assert result.state.mean[1] == 0.0


def random_unitary_circuit(rng, labels):
    """Every unitary op type three times, shuffled, on random wires of ``labels``."""
    specs = [spec for spec in OPS.values() if spec.unitary] * 3
    ops = []
    for k in rng.permutation(len(specs)):
        wires = rng.choice(labels, size=2, replace=False).tolist()
        reals = rng.choice([-1.0, 1.0], size=2) * rng.uniform(0.5, 1.2, size=2)
        ops.append(make_op(specs[k], wires, reals.tolist()))
    return Circuit(labels, tuple(ops))


def test_run_matches_symplectic_of_on_unitary_circuits(rng):
    adjacent = Circuit(
        labels=(1, 2, 3),
        ops=(
            Qnd(2, 3, -0.5),
            BeamSplitterPM(1, 3),
            SqueezeFactor(2, 2.0),
            Swap(1, 2),
            Fourier(3),
        ),
    )
    # Row-indexing mistakes only show when gates hit non-adjacent modes of a
    # wide state: twelve scattered, unsorted labels.
    scattered = random_unitary_circuit(rng, (23, 2, 41, 7, 13, 5, 37, 11, 3, 29, 17, 31))
    for circuit in (adjacent, scattered):
        state = random_gaussian_state(rng, circuit.n_modes)
        stepped = run(circuit, state).state
        fused = symplectic_of(circuit).apply(state)
        np.testing.assert_allclose(fused.mean, stepped.mean, rtol=0, atol=1e-12)
        np.testing.assert_allclose(fused.cov, stepped.cov, rtol=0, atol=1e-12)


@pytest.mark.parametrize("seed", range(30))
def test_symplectic_of_matches_the_dense_product_with_squeezers_anywhere(seed):
    # three two-mode squeezers and three displacements among the other
    # gates, in random order: the fold's slices, one per power of e^{r},
    # summed, against the product of dense blocks, the squeezers' written
    # from cosh and sinh
    circuit = random_unitary_circuit(np.random.default_rng(seed), (3, 1, 4, 2))
    assert len(_fold(circuit.ops, circuit.labels)[1]) == 7
    folded = symplectic_of(circuit)
    S, d = dense_map(circuit)
    rounding = len(circuit) * np.finfo(float).eps * max(1.0, np.abs(S).max())
    np.testing.assert_allclose(folded.matrix, S, rtol=0, atol=rounding)
    np.testing.assert_allclose(folded.displacement, d, rtol=0, atol=rounding)


@pytest.mark.parametrize("basis", ["x", "p"])
@pytest.mark.parametrize("r", [0.4, 3.0])
def test_run_after_a_two_mode_squeezer_is_schur_conditioning(rng, basis, r):
    # a homodyne of one squeezed wire fed forward to its partner, which is
    # squeezed again with a third wire after the register is written
    before = (Displace(2, 0.5 - 1j), TwoModeSqueeze(1, 2, r), Qnd(3, 1, 0.7))
    after = (TwoModeSqueeze(2, 3, -0.6),)
    circuit = Circuit((1, 2, 3), before + (Measure(1, basis, "m"), FeedforwardDisplace("m", 2, "p", -0.8)) + after)
    state = random_gaussian_state(rng, 3)
    S, d = dense_map(Circuit((1, 2, 3), before))
    mean, cov = schur_condition(S @ state.mean + d, S @ state.cov @ S.T, 0, basis, 1.3)
    mean[2] += -0.8 * 1.3  # p of wire 2, the first of the survivors (2, 3)
    S, d = dense_map(Circuit((2, 3), after))
    stepped = (S @ mean + d, S @ cov @ S.T, (2, 3), {"m": 1.3})
    assert_matches_stepped(run(circuit, state, forced={"m": 1.3}), stepped)


# ---------------------------------------------------------------------------
# interpreter: the outcome-averaged run
# ---------------------------------------------------------------------------


def test_run_average_adds_the_fed_forward_outcome_variance():
    # Averaged over x1, x2 + x1 keeps the variance of both: 1/2 + 1/2.
    circuit = parse("QND c=1 t=2 gain=1\nMEAS mode=1 basis=x reg=m\n")
    result = run(circuit, g.vacuum(2), average=True)
    assert result.labels == (2,)
    assert result.state.cov[0, 0] == pytest.approx(1.0, abs=1e-15)
    assert result.state.cov[1, 1] == pytest.approx(0.5, abs=1e-15)
    assert result.records["m"].outcome == 0.0


def test_run_average_rejects_forced_outcomes():
    circuit = Circuit(labels=(1, 2), ops=(Measure(1, "x", "m"),))
    with pytest.raises(ValueError, match="average"):
        run(circuit, g.vacuum(2), forced={"m": 0.0}, average=True)


def test_run_average_rejects_an_rng():
    circuit = Circuit(labels=(1, 2), ops=(Measure(1, "x", "m"),))
    with pytest.raises(ValueError, match="average"):
        run(circuit, g.vacuum(2), rng=np.random.default_rng(0), average=True)


@pytest.mark.parametrize("average", [False, True])
def test_run_refuses_to_discard_every_mode(average):
    with pytest.raises(ValueError, match="every mode"):
        run(Circuit(labels=(1,), ops=(Discard(1),)), g.vacuum(1), average=average)


def _measured_circuit(rng, basis):
    """Gates, one homodyne of wire 2 fed forward to wires 1 and 3, gates, a discard."""
    before = random_unitary_circuit(rng, (1, 2, 3, 4)).ops[:12]
    after = random_unitary_circuit(rng, (1, 3, 4)).ops[:6]
    middle = (
        Measure(2, basis, "m"),
        FeedforwardDisplace("m", 1, "x", float(rng.uniform(-2, 2))),
        FeedforwardDisplace("m", 3, "p", float(rng.uniform(-2, 2))),
    )
    return Circuit((1, 2, 3, 4), before + middle + after + (Discard(4),)), len(before)


@pytest.mark.parametrize("basis", ["x", "p"])
def test_run_average_is_the_mixture_of_forced_outcomes(rng, basis):
    # Each forced outcome gives the same covariance and a mean linear in the
    # outcome m ~ N(a, s^2), so the average over m is exactly the midpoint of
    # the outcomes a +- s, plus the spread of their means.
    for _ in range(5):
        circuit, k = _measured_circuit(rng, basis)
        state = random_gaussian_state(rng, 4)
        prefix = run(circuit.with_ops(circuit.ops[:k]), state).state
        i = {"x": 1, "p": 5}[basis]  # wire 2's measured quadrature in the 4-mode prefix
        a, s = prefix.mean[i], math.sqrt(prefix.cov[i, i])
        lo, hi = (run(circuit, state, forced={"m": a + sign * s}).state for sign in (-1, 1))
        half = (hi.mean - lo.mean) / 2
        averaged = run(circuit, state, average=True)
        assert averaged.labels == (1, 3)
        assert averaged.records["m"].outcome == pytest.approx(a, rel=1e-12, abs=1e-12)
        np.testing.assert_allclose(averaged.state.mean, (hi.mean + lo.mean) / 2, rtol=0, atol=1e-10)
        np.testing.assert_allclose(averaged.state.cov, lo.cov + np.outer(half, half), rtol=0, atol=1e-10)


def random_circuit_with_discards(rng, labels, n_ops):
    """Random unitary ops on the live wires, with a Discard now and then; two wires survive."""
    live = list(labels)
    specs = [spec for spec in OPS.values() if spec.unitary]
    ops = []
    for _ in range(n_ops):
        if len(live) > 2 and rng.random() < 0.2:
            ops.append(Discard(live.pop(rng.integers(len(live)))))
            continue
        wires = rng.choice(live, size=2, replace=False).tolist()
        reals = rng.choice([-1.0, 1.0], size=2) * rng.uniform(0.5, 1.2, size=2)
        ops.append(make_op(specs[rng.integers(len(specs))], wires, reals.tolist()))
    return Circuit(labels, tuple(ops))


def assert_matches_stepped(result, stepped):
    """``run``'s result agrees with ``oracles.step_run``'s, to rounding that grows with the entries."""
    mean, cov, labels, outcomes = stepped
    assert result.labels == labels
    assert list(result.records) == list(outcomes)
    scale = max(1.0, np.abs(cov).max(), np.abs(mean).max())
    np.testing.assert_allclose(result.state.mean, mean, rtol=0, atol=1e-12 * scale)
    np.testing.assert_allclose(result.state.cov, cov, rtol=0, atol=1e-12 * scale)
    got = [record.outcome for record in result.records.values()]
    np.testing.assert_allclose(got, list(outcomes.values()), rtol=0, atol=1e-12 * scale)


@given(seed=st.integers(0, 2**32 - 1), n_ops=st.integers(0, 30))
@settings(max_examples=60, deadline=None)
def test_fold_agrees_with_the_stepped_run_on_unitary_circuits_with_discards(seed, n_ops):
    # squeezers here reach entries of ~1e4
    rng = np.random.default_rng(seed)
    circuit = random_circuit_with_discards(rng, (6, 2, 9, 4, 1, 7), n_ops)
    state = random_gaussian_state(rng, circuit.n_modes)
    stepped = step_run(circuit, state.mean, state.cov)
    assert_matches_stepped(run(circuit, state), stepped)
    assert_matches_stepped(run(circuit, state, average=True), stepped)


def random_measured_circuit(rng, labels):
    """Ten random gates, two homodynes, three feedforwards and a discard, in random
    order on the live wires of ``labels``; a feedforward drawn before any
    homodyne waits for the first one.  Returns the circuit and its registers."""
    specs = [spec for spec in OPS.values() if spec.unitary]
    live, ops, registers, waiting = list(labels), [], [], 0
    for kind in rng.permutation(["gate"] * 10 + ["measure"] * 2 + ["feedforward"] * 3 + ["discard"]):
        if kind == "gate":
            spec = rng.choice([s for s in specs if n_wires(s) <= len(live)])
            wires = rng.choice(live, size=n_wires(spec), replace=False).tolist()
            reals = rng.choice([-1.0, 1.0], size=2) * rng.uniform(0.5, 1.2, size=2)
            ops.append(make_op(spec, wires, reals.tolist()))
        elif kind in ("measure", "discard"):
            mode = live.pop(rng.integers(len(live)))
            if kind == "discard":
                ops.append(Discard(mode))
                continue
            registers.append(f"m{len(registers)}")
            ops.append(Measure(mode, str(rng.choice(["x", "p"])), registers[-1]))
            ops.extend(_feedforward(rng, registers, live) for _ in range(waiting))
            waiting = 0
        elif registers:
            ops.append(_feedforward(rng, registers, live))
        else:
            waiting += 1
    return Circuit(labels, tuple(ops)), registers


def _feedforward(rng, registers, live):
    register = registers[rng.integers(len(registers))]
    return FeedforwardDisplace(register, int(rng.choice(live)), str(rng.choice(["x", "p"])), float(rng.uniform(-2, 2)))


@pytest.mark.parametrize("seed", range(40))
def test_run_matches_the_stepped_oracle_on_measured_circuits(seed):
    rng = np.random.default_rng(seed)
    circuit, registers = random_measured_circuit(rng, (1, 2, 3, 4))
    state = random_gaussian_state(rng, 4)
    assert [type(op) for op in circuit.ops].count(FeedforwardDisplace) == 3
    forced = {register: float(rng.normal(scale=2)) for register in registers}
    result = run(circuit, state, forced=forced)
    assert_matches_stepped(result, step_run(circuit, state.mean, state.cov, forced=forced))
    assert {r: record.outcome for r, record in result.records.items()} == forced
    # sampled, and sampled with the first outcome forced: the same draws
    # from generators that end in the same state
    for partial in ({}, {registers[0]: forced[registers[0]]}):
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        result = run(circuit, state, forced=partial, rng=ours)
        assert_matches_stepped(result, step_run(circuit, state.mean, state.cov, forced=partial, rng=theirs))
        assert ours.bit_generator.state == theirs.bit_generator.state


def test_run_reports_a_degenerate_measurement():
    # the factor row of x on wire 1 is exactly 0, so Var(x_1) = 0
    state = g.GaussianState._of(np.zeros(4), np.diag([0.0, 1.0, 1.0, 1.0]))
    circuit = Circuit((1, 2), (Measure(1, "x", "m"),))
    with pytest.raises(g.DegenerateMeasurementError, match=r"x\[0\]"):
        run(circuit, state, forced={"m": 0.0})
    with pytest.raises(g.DegenerateMeasurementError):
        run(circuit, state, rng=np.random.default_rng(0))
