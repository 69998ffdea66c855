"""Circuit intermediate representation.

A circuit is an ordered op list over named wires.  Wire labels are 1-based
integers (matching how modes are numbered in all I/O); a circuit that acts on
the survivors of an erasure keeps the original labels, e.g. ``labels=(1, 4,
5)``.  Ops reference wires by label, never by position.

Measurement results land in named classical registers; feedforward ops read
them.  Validation walks the op list once, tracking which wires are still
live and which registers have been written.

Every op type is written down once, in the op table ``OPS``: its name, its
text tag, its ``key=value`` fields in constructor order, each with a
``Kind`` that reads, writes and checks it, and, for unitary ops, its gate
block from :mod:`cvrep.gaussian`.  The row builds the class itself (only
``Displace``, whose two real fields are one complex amplitude, is written
by hand): its slots, and an ``__init__``, a closure over the row, that
runs the fields' checks and sets them; no code is generated.
Constructing, serializing and parsing an op, and the interpreter's
``run``, ``symplectic_of`` and position check ``_fold_positions`` all
read that one entry.

A circuit of ops with at most two wires and one other field, as every
circuit synthesis emits, can also be held as columns (``_Columns``): per
op its row in ``OPS``, its wires and that field's value.  Synthesis builds
them with no op objects, and the position fold reads them.  ``_columns``
gives a ``Circuit``'s columns, ``_circuit`` the checked ``Circuit`` that
columns hold, and ``_serialize_columns`` the text ``serialize`` gives for
it, in one ``%`` call of its kinds' row templates.

Serialization is line-oriented text, one op per line, after a ``MODES``
header naming the wires (optional on input: without it the wires are 1 to
the highest label used).  An op's line gives each of its keys once, and no
other.  Numbers are printed as ``repr(float)``, without
the trailing ``.0`` of a whole number below 1e15, so parse(print(c))
reproduces the circuit bit-for-bit, the sign of a zero included.
"""

from __future__ import annotations

import re
from inspect import Parameter, Signature
from math import isfinite
from operator import attrgetter
from typing import Callable, NamedTuple

from numpy import integer

from .. import gaussian as g
from .._value import Value

__all__ = [
    "Qnd",
    "BeamSplitterPM",
    "SqueezeFactor",
    "PhaseShift",
    "Fourier",
    "InverseFourier",
    "Pi",
    "Swap",
    "Displace",
    "TwoModeSqueeze",
    "Measure",
    "FeedforwardDisplace",
    "Discard",
    "Circuit",
    "CircuitParseError",
    "serialize",
    "parse",
]


class Displace(Value):
    """Displace ``mode`` by the amplitude ``alpha``, checked by ``gaussian._amplitude``.

    Written by hand: its row's two real fields are the parts of one attribute.
    """

    __slots__ = ("mode", "alpha")

    def __init__(self, mode, alpha):
        if not _is_label(mode):
            raise ValueError(f"Displace.mode must be an integer, got {mode!r}")
        self._set(mode, g._amplitude(alpha))


# ---------------------------------------------------------------------------
# the op table: each op type's text form, wires, checks and gate, written down once

#: a float's ``%`` conversion, indexed by ``_whole``: ``%r``, or ``%.0f`` for a
#: whole number below 1e15, whose ``repr`` is its digits and ``.0``
_CONVERSIONS = ("%r", "%.0f")


def _whole(v: float) -> bool:
    """Whether the float is written as a whole number (``%.0f``) rather than by ``repr``."""
    return v.is_integer() and abs(v) < 1e15


def _fmt(v: float) -> str:
    """``repr`` of the float, without the ``.0`` of a whole number below 1e15: -0.0 prints as -0."""
    v = float(v)
    return _CONVERSIONS[_whole(v)] % v


class Kind(NamedTuple):
    """A field kind: how a field reads from and writes to text, and its check.

    ``bad`` is a predicate on the value, true when it is invalid; ``must``
    says what a valid one is.  A wire is an int or a NumPy integer, not a
    bool, so that its text parses back to it; ``_init`` also tests that it
    differs from the op's earlier wires.
    """

    read: Callable[[str], object]  # its text -> the value
    write: Callable[[object], str] | None  # the value -> its text; None: as an f-string prints it
    bad: Callable[[object], bool]
    must: str


_identifier = re.compile(r"[A-Za-z_]\w*").fullmatch


def _is_label(value) -> bool:
    """Whether ``value`` can be a wire label: an int or a NumPy integer, not a bool."""
    return type(value) is int or isinstance(value, integer)


WIRE = Kind(int, None, lambda v: not _is_label(v), "must be an integer")
REAL = Kind(float, _fmt, lambda v: not isfinite(v), "must be finite")
NONZERO = Kind(float, _fmt, lambda v: v == 0 or not isfinite(v), "must be finite and nonzero")
QUADRATURE = Kind(str, None, lambda v: v not in ("x", "p"), "must be 'x' or 'p'")
REGISTER = Kind(str, None, lambda v: not _identifier(v), "must be an identifier")


def _field(kind: Kind):
    """Field maker: ``(text key, attribute, kind)``; the attribute defaults to the key."""
    return lambda key, attr=None: (key, attr or key, kind)


_wire, _real, _nonzero, _quadrature, _register = map(_field, (WIRE, REAL, NONZERO, QUADRATURE, REGISTER))


def _getter(attrs: tuple[str, ...]) -> Callable[[object], tuple]:
    """op -> the tuple of its attributes named by (possibly dotted) ``attrs``."""
    if not attrs:
        return lambda op: ()
    get = attrgetter(*attrs)
    return get if len(attrs) > 1 else lambda op: (get(op),)


def _init(name: str, fields) -> Callable:
    """The op type's ``__init__``: it takes the fields by position or by keyword, checks them and sets them.

    The checks run in field order: the field's kind's ``bad``, then, for a
    wire, that it differs from each earlier wire.  The first that fails
    raises ValueError, naming the field and its value.
    """
    signature = Signature([Parameter(p, Parameter.POSITIONAL_OR_KEYWORD) for p in ("self", *(a for _, a, _ in fields))])

    def __init__(self, *args, **kwargs):
        values = signature.bind(self, *args, **kwargs).args[1:]
        for i, (value, (_, attr, kind)) in enumerate(zip(values, fields)):
            if kind.bad(value):
                raise ValueError(f"{name}.{attr} {kind.must}, got {value!r}")
            for (_, other, other_kind), earlier in zip(fields[:i], values):
                if kind is other_kind is WIRE and value == earlier:
                    raise ValueError(f"{name}.{attr} must differ from {name}.{other}, got {value!r}")
        self._set(*values)

    __init__.__signature__ = signature
    return __init__


def _row_templates(tag: str, fields, slots) -> tuple[str, str] | None:
    """The ``%`` templates of the line of the op a column row ``(a, b, value)`` holds.

    Field i reads the row's slot ``slots[i]``.  The line takes the row's
    three slots in order, one template per conversion in ``_CONVERSIONS``:
    a field ``_fmt`` writes takes that conversion, any other ``%s``, as an
    f-string prints it, and a slot no field reads ``%.0s``, which writes
    nothing.  So ``_serialize_columns`` writes a whole circuit in one ``%``
    call.  None for a row whose fields do not take the slots in order (a
    displacement's two reals, a measurement's basis and register), where a
    column row keeps None for the op's value, or that a writer other than
    ``_fmt`` writes: no such row is written from columns.
    """
    by_slot = dict(zip(slots, fields))

    def template(conversion: str) -> str:
        text = tag
        for slot in range(3):
            if slot in by_slot:
                key, _, kind = by_slot[slot]
                text += f" {key}={'%s' if kind.write is None else conversion}"
            else:
                text += "%.0s"
        return text

    writable = slots == sorted(set(slots)) and all(kind.write in (None, _fmt) for _, _, kind in fields)
    return tuple(map(template, _CONVERSIONS)) if writable else None


class OpSpec:
    """One op type: its class, its text tag, its ``key=value`` fields and its gate.

    ``fields`` lists ``(text key, attribute, kind)`` in constructor order,
    and ``make`` builds the op from the field values.  Each field's
    ``Kind`` reads and writes its text and checks its value.  Given the
    type's name, the row builds the class: a ``Value`` whose slots are the
    fields' attributes, and whose ``__init__`` (``_init``) takes them by
    position or by keyword, runs their checks and sets them, so every op
    is checked as it is constructed.  ``Displace`` is passed as its
    hand-written class: its two real fields are the parts of one
    amplitude, ``alpha``, which ``gaussian._amplitude`` checks.  A unitary
    op has a ``block`` (the gate's 2k x 2k matrix over its k wires: x of
    each wire in field order, then p of each), or ``terms``, its e^{r} and
    e^{-r} parts, whose sum is its block, or, for a displacement, a
    ``shift`` (its (x, p) mean displacement); each is called with the op's
    non-wire field values in order.  The interpreter's ``_fold`` applies
    them, and its ``_fold_positions`` applies the x part of blocks that
    map positions to positions alone.
    """

    def __init__(self, cls, tag, fields, *, block=None, terms=None, shift=None, make=None):
        if isinstance(cls, str):
            attrs = tuple(attr for _, attr, _ in fields)
            cls = type(cls, (Value,), {"__slots__": attrs, "__module__": __name__, "__init__": _init(cls, fields)})
        self.cls, self.tag, self.fields = cls, tag, fields
        self.block = block if terms is None else lambda *params: sum(terms(*params))
        self.terms, self.shift = terms, shift
        self.make = make or cls
        self.unitary = self.block is not None or shift is not None
        self.wires = _getter(tuple(attr for _, attr, kind in fields if kind is WIRE))
        self.params = _getter(tuple(attr for _, attr, kind in fields if kind is not WIRE))
        #: each field's slot in a column row (a, b, value), for an op that one holds (see _Columns)
        self.slots = [i if kind is WIRE else 2 for i, (_, _, kind) in enumerate(fields)]
        self.row_templates = _row_templates(tag, fields, self.slots)

    def read(self, kv: dict[str, str]):
        """The op from its line's ``key=value`` pairs, one per field."""
        return self.make(*(kind.read(kv[key]) for key, _, kind in self.fields))

    def line(self, op) -> str:
        """The op as one line of circuit text: its tag, then each field's ``key=value``, written by its kind."""
        fields = [f" {key}={(kind.write or format)(attrgetter(attr)(op))}" for key, attr, kind in self.fields]
        return self.tag + "".join(fields)

    def row_make(self, a, b, value):
        """The op a column row holds, built, and checked, by ``make``."""
        return self.make(*[(a, b, value)[slot] for slot in self.slots])


_SPECS = (
    OpSpec("Qnd", "QND", (_wire("c", "control"), _wire("t", "target"), _real("gain")), block=g.qnd_block),
    OpSpec("BeamSplitterPM", "BS", (_wire("a"), _wire("b")), block=g.beam_splitter_pm_block),
    OpSpec("SqueezeFactor", "SQ", (_wire("mode"), _nonzero("factor")), block=g.squeeze_block),
    OpSpec("PhaseShift", "PHASE", (_wire("mode"), _real("phi")), block=g.phase_block),
    OpSpec("Fourier", "FOURIER", (_wire("mode"),), block=g.fourier_block),
    OpSpec("InverseFourier", "INVFOURIER", (_wire("mode"),), block=g.inverse_fourier_block),
    OpSpec("Pi", "PI", (_wire("mode"),), block=g.pi_block),
    OpSpec("Swap", "SWAP", (_wire("a"), _wire("b")), block=g.swap_block),
    OpSpec(
        Displace,
        "DISP",
        (_wire("mode"), _real("re", "alpha.real"), _real("im", "alpha.imag")),
        shift=g.displacement,
        make=lambda mode, re, im: Displace(mode, complex(re, im)),
    ),
    OpSpec("TwoModeSqueeze", "TMS", (_wire("a"), _wire("b"), _real("r")), terms=g.two_mode_squeeze_terms),
    OpSpec("Measure", "MEAS", (_wire("mode"), _quadrature("basis"), _register("reg", "register"))),
    OpSpec(
        "FeedforwardDisplace",
        "FF",
        (_register("reg", "register"), _wire("target"), _quadrature("quad"), _real("gain")),
    ),
    OpSpec("Discard", "DISCARD", (_wire("mode"),)),
)
OPS = {spec.cls: spec for spec in _SPECS}
_BY_TAG = {spec.tag: spec for spec in _SPECS}
(Qnd, BeamSplitterPM, SqueezeFactor, PhaseShift, Fourier, InverseFourier, Pi, Swap, Displace, TwoModeSqueeze,
 Measure, FeedforwardDisplace, Discard) = OPS


def spec_of(op) -> OpSpec:
    try:
        return OPS[type(op)]
    except KeyError:
        raise TypeError(f"not a circuit op: {op!r}") from None


def _labels(labels) -> tuple[int, ...]:
    """The wire labels as ints; ValueError unless they are distinct positive integers."""
    labels = tuple(int(v) for v in labels)
    if len(set(labels)) != len(labels) or any(v < 1 for v in labels):
        raise ValueError(f"labels must be distinct positive integers, got {labels}")
    return labels


class Circuit(Value):
    """Ordered ops over labelled wires; immutable after construction."""

    __slots__ = ("labels", "ops")

    def __init__(self, labels: tuple[int, ...], ops: tuple = ()):
        self._set(_labels(labels), tuple(ops))
        self.validate()

    @property
    def n_modes(self) -> int:
        return len(self.labels)

    def validate(self) -> None:
        live = set(self.labels)
        written: set[str] = set()
        for i, op in enumerate(self.ops):
            spec = spec_of(op)
            for wire in spec.wires(op):
                if wire not in live:
                    raise ValueError(
                        f"op {i} ({type(op).__name__}) references wire {wire}, "
                        f"which is not live"
                    )
            if spec.unitary:
                continue
            if isinstance(op, Measure):
                if op.register in written:
                    raise ValueError(f"register {op.register!r} written twice")
                written.add(op.register)
                live.remove(op.mode)
            elif isinstance(op, Discard):
                live.remove(op.mode)
            elif isinstance(op, FeedforwardDisplace):
                if op.register not in written:
                    raise ValueError(
                        f"op {i} reads register {op.register!r} before any measurement writes it"
                    )

    def with_ops(self, ops) -> "Circuit":
        return Circuit(self.labels, tuple(ops))

    def __len__(self) -> int:
        return len(self.ops)


class _Columns(NamedTuple):
    """A circuit over ``labels`` as four parallel lists, one entry per op.

    ``kind`` is the op's ``OPS`` row, ``a`` and ``b`` its wires (``b`` is
    None for a one-wire op) and ``value`` its one other field (None if it
    has none).  A row holds every op whose wires come first, with at most
    one other field after them, as every op with a position block has.  An
    op with more (a displacement, a measurement or a feedforward) keeps
    None in ``value``, and only the position fold, which rejects it, reads it.
    """

    labels: tuple[int, ...]
    kind: list
    a: list
    b: list
    value: list


def _columns(circuit: Circuit) -> _Columns:
    """The circuit's ops as columns."""
    columns = _Columns(circuit.labels, [], [], [], [])
    for op in circuit.ops:
        spec = spec_of(op)
        wires, params = spec.wires(op), spec.params(op)
        columns.kind.append(spec)
        columns.a.append(wires[0])
        columns.b.append(wires[1] if len(wires) > 1 else None)
        columns.value.append(params[0] if len(params) == 1 else None)
    return columns


def _circuit(columns: _Columns) -> Circuit:
    """The circuit the columns hold, each op built, and checked, by its kind's row."""
    ops = [kind.row_make(a, b, value) for kind, a, b, value in zip(*columns[1:])]
    return Circuit(columns.labels, tuple(ops))


# ---------------------------------------------------------------------------
# serialization

class CircuitParseError(ValueError):
    pass


def _modes_line(labels) -> str:
    return "MODES " + " ".join(str(v) for v in labels)


def serialize(circuit: Circuit) -> str:
    lines = [_modes_line(circuit.labels)]
    lines.extend(spec_of(op).line(op) for op in circuit.ops)
    return "\n".join(lines) + "\n"


def _serialize_columns(columns: _Columns) -> str:
    """``serialize`` of the circuit the columns hold, in one ``%`` call.

    Each op's line is its kind's row template for its value's conversion
    (``_whole`` picks it, as in ``_fmt``), and takes the row's wires and
    the value as a float.  The ``MODES`` line is an argument, not template.
    """
    templates, args = ["%s"], [_modes_line(columns.labels)]
    for kind, a, b, value in zip(*columns[1:]):
        if value is not None:
            value = float(value)
        templates.append(kind.row_templates[value is not None and _whole(value)])
        args += (a, b, value)
    return ("\n".join(templates) + "\n") % tuple(args)


def _fields(spec: OpSpec, tokens: list[str], lineno: int) -> dict[str, str]:
    """The line's ``key=value`` pairs: each of the op's keys once, and no other."""
    keys = [key for key, _, _ in spec.fields]
    out = {}
    for tok in tokens:
        if "=" not in tok:
            raise CircuitParseError(f"line {lineno}: expected key=value, got {tok!r}")
        key, val = tok.split("=", 1)
        if key not in keys:
            raise CircuitParseError(f"line {lineno}: {spec.tag} has no key {key}=")
        if key in out:
            raise CircuitParseError(f"line {lineno}: {spec.tag} repeats {key}=")
        out[key] = val
    for key in keys:
        if key not in out:
            raise CircuitParseError(f"line {lineno}: {spec.tag} needs {key}=")
    return out


def parse(text: str) -> Circuit:
    labels: tuple[int, ...] | None = None
    ops = []
    max_wire = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, *rest = line.split()
        try:
            if head == "MODES":
                if ops or labels is not None:
                    raise CircuitParseError(f"line {lineno}: MODES must come first, once")
                labels = tuple(int(v) for v in rest)
                continue
            spec = _BY_TAG.get(head)
            if spec is None:
                raise CircuitParseError(f"line {lineno}: unknown op {head!r}")
            op = spec.read(_fields(spec, rest, lineno))
        except ValueError as exc:
            if isinstance(exc, CircuitParseError):
                raise
            raise CircuitParseError(f"line {lineno}: {exc}") from exc
        ops.append(op)
        max_wire = max([max_wire, *spec.wires(op)])
    if labels is None:
        labels = tuple(range(1, max_wire + 1))
    try:
        return Circuit(labels, tuple(ops))
    except ValueError as exc:
        raise CircuitParseError(str(exc)) from exc
