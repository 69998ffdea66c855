"""Circuit intermediate representation.

A circuit is an ordered op list over named wires.  Wire labels are 1-based
integers (matching how modes are numbered in all I/O); a circuit that acts on
the survivors of an erasure keeps the original labels, e.g. ``labels=(1, 4,
5)``.  Ops reference wires by label, never by position.

Measurement results land in named classical registers; feedforward ops read
them.  Validation walks the op list once, tracking which wires are still
live and which registers have been written.

Every op type is written down once, in the op table ``OPS``: its text tag,
its ``key=value`` fields in constructor order, each with a ``Kind`` that
reads, writes and checks it, and, for unitary ops, its gate block from
:mod:`cvrep.gaussian`.  Constructing, serializing and parsing an op, and
the interpreter's ``run``, ``symplectic_of`` and position check
``_fold_positions`` all read that one entry.

Serialization is line-oriented text, one op per line, after a ``MODES``
header naming the wires (optional on input: without it the wires are 1 to
the highest label used).  An op's line gives each of its keys once, and no
other.  Numbers are printed as ``repr(float)``, without
the trailing ``.0`` of a whole number below 1e15, so parse(print(c))
reproduces the circuit bit-for-bit, the sign of a zero included.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import isfinite
from operator import attrgetter
from typing import Callable, NamedTuple

from .. import gaussian as g

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


class _Op:
    """Base of the op types: ``OpSpec`` sets each one's ``__post_init__`` to its row's checks.

    A dataclass ``__init__`` calls it only if the class has one when decorated, hence this stand-in.
    """

    __post_init__ = None


@dataclass(frozen=True)
class Qnd(_Op):
    control: int
    target: int
    gain: float


@dataclass(frozen=True)
class BeamSplitterPM(_Op):
    a: int
    b: int


@dataclass(frozen=True)
class SqueezeFactor(_Op):
    mode: int
    factor: float


@dataclass(frozen=True)
class PhaseShift(_Op):
    mode: int
    phi: float


@dataclass(frozen=True)
class Fourier(_Op):
    mode: int


@dataclass(frozen=True)
class InverseFourier(_Op):
    mode: int


@dataclass(frozen=True)
class Pi(_Op):
    mode: int


@dataclass(frozen=True)
class Swap(_Op):
    a: int
    b: int


@dataclass(frozen=True)
class Displace(_Op):
    mode: int
    alpha: complex

    def __post_init__(self):
        object.__setattr__(self, "alpha", g._amplitude(self.alpha))


@dataclass(frozen=True)
class TwoModeSqueeze(_Op):
    a: int
    b: int
    r: float


@dataclass(frozen=True)
class Measure(_Op):
    mode: int
    basis: str
    register: str


@dataclass(frozen=True)
class FeedforwardDisplace(_Op):
    register: str
    target: int
    quad: str
    gain: float


@dataclass(frozen=True)
class Discard(_Op):
    mode: int


# ---------------------------------------------------------------------------
# the op table: each op type's text form, wires, checks and gate, written down once

def _fmt(v: float) -> str:
    """``repr`` of the float, without the ``.0`` of a whole number below 1e15: -0.0 prints as -0."""
    text = repr(float(v))
    return text[:-2] if text.endswith(".0") and abs(v) < 1e15 else text


class Kind(NamedTuple):
    """A field kind: how a field reads from and writes to text, and its check.

    ``bad`` is a Python condition on ``{0}``, the value, true when it is
    invalid; ``must`` says what a valid one is.  A wire's check is that it
    differs from the op's other wires, so ``_checks`` writes it.
    """

    read: Callable[[str], object]  # its text -> the value
    write: Callable[[object], str] | None  # the value -> its text; None: as str.format prints it
    bad: str | None
    must: str


_identifier = re.compile(r"[A-Za-z_]\w*").fullmatch

WIRE = Kind(int, None, None, "must differ from")
REAL = Kind(float, _fmt, "not isfinite({0})", "must be finite")
NONZERO = Kind(float, _fmt, "{0} == 0 or not isfinite({0})", "must be finite and nonzero")
QUADRATURE = Kind(str, None, "{0} not in ('x', 'p')", "must be 'x' or 'p'")
REGISTER = Kind(str, None, "not _identifier({0})", "must be an identifier")


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


def _checks(name: str, fields) -> Callable[[object], None]:
    """The op's checks, each field's test from its kind, compiled into one function.

    Straight-line tests cost what hand-written ones do; a loop over the
    fields would cost each op about half again its construction time, and
    synthesis constructs thousands per matrix.
    """
    lines, wires = ["def check(self):", "    pass"], []
    for _, attr, kind in fields:
        value = f"self.{attr}"
        if kind is WIRE:
            tests = [(f"{value} == self.{other}", f"{kind.must} {name}.{other}") for other in wires]
            wires.append(attr)
        else:
            tests = [(kind.bad.format(value), kind.must)]
        for bad, must in tests:
            lines.append(f"    if {bad}: raise ValueError({f'{name}.{attr} {must}, got '!r} + repr({value}))")
    namespace = {"isfinite": isfinite, "_identifier": _identifier}
    exec("\n".join(lines), namespace)
    return namespace["check"]


class OpSpec:
    """One op type: its text tag, its ``key=value`` fields and its gate.

    ``fields`` lists ``(text key, attribute, kind)`` in constructor order,
    and ``make`` builds the op from the field values.  Each field's
    ``Kind`` reads and writes its text and checks its value: the row's
    checks become the op type's ``__post_init__``, so every op is checked
    as it is constructed (Displace keeps its own, which normalizes its
    amplitude through ``gaussian._amplitude``, the check of both its
    fields).  A unitary op has a ``block`` (the gate's 2k x 2k matrix over
    its k wires: x of each wire in field order, then p of each), or
    ``terms``, its e^{r} and e^{-r} parts, whose sum is its block, or, for a
    displacement, a ``shift`` (its (x, p) mean displacement); each is
    called with the op's non-wire field values in order.  The interpreter's
    ``_fold`` applies them, and its ``_fold_positions`` applies the x part
    of blocks that map positions to positions alone.
    """

    def __init__(self, cls, tag, fields, *, block=None, terms=None, shift=None, make=None):
        self.cls, self.tag, self.fields = cls, tag, fields
        self.block = block if terms is None else lambda *params: sum(terms(*params))
        self.terms, self.shift = terms, shift
        self.make = make or cls
        self.unitary = self.block is not None or shift is not None
        self.values = _getter(tuple(attr for _, attr, _ in fields))
        self.wires = _getter(tuple(attr for _, attr, kind in fields if kind is WIRE))
        self.params = _getter(tuple(attr for _, attr, kind in fields if kind is not WIRE))
        self._line = " ".join([tag, *(f"{key}={{}}" for key, _, _ in fields)])
        self._writes = [(i, kind.write) for i, (_, _, kind) in enumerate(fields) if kind.write]
        if cls.__post_init__ is None:
            cls.__post_init__ = _checks(cls.__name__, fields)

    def line(self, op) -> str:
        """The op as one line of circuit text."""
        values = list(self.values(op))
        for i, write in self._writes:
            values[i] = write(values[i])
        return self._line.format(*values)

    def read(self, kv: dict[str, str]):
        """The op from its line's ``key=value`` pairs, one per field."""
        return self.make(*(kind.read(kv[key]) for key, _, kind in self.fields))


_SPECS = (
    OpSpec(Qnd, "QND", (_wire("c", "control"), _wire("t", "target"), _real("gain")), block=g.qnd_block),
    OpSpec(BeamSplitterPM, "BS", (_wire("a"), _wire("b")), block=g.beam_splitter_pm_block),
    OpSpec(SqueezeFactor, "SQ", (_wire("mode"), _nonzero("factor")), block=g.squeeze_block),
    OpSpec(PhaseShift, "PHASE", (_wire("mode"), _real("phi")), block=g.phase_block),
    OpSpec(Fourier, "FOURIER", (_wire("mode"),), block=g.fourier_block),
    OpSpec(InverseFourier, "INVFOURIER", (_wire("mode"),), block=g.inverse_fourier_block),
    OpSpec(Pi, "PI", (_wire("mode"),), block=g.pi_block),
    OpSpec(Swap, "SWAP", (_wire("a"), _wire("b")), block=g.swap_block),
    OpSpec(
        Displace,
        "DISP",
        (_wire("mode"), _real("re", "alpha.real"), _real("im", "alpha.imag")),
        shift=g.displacement,
        make=lambda mode, re, im: Displace(mode, complex(re, im)),
    ),
    OpSpec(TwoModeSqueeze, "TMS", (_wire("a"), _wire("b"), _real("r")), terms=g.two_mode_squeeze_terms),
    OpSpec(Measure, "MEAS", (_wire("mode"), _quadrature("basis"), _register("reg", "register"))),
    OpSpec(
        FeedforwardDisplace,
        "FF",
        (_register("reg", "register"), _wire("target"), _quadrature("quad"), _real("gain")),
    ),
    OpSpec(Discard, "DISCARD", (_wire("mode"),)),
)
OPS = {spec.cls: spec for spec in _SPECS}
_BY_TAG = {spec.tag: spec for spec in _SPECS}


def spec_of(op) -> OpSpec:
    try:
        return OPS[type(op)]
    except KeyError:
        raise TypeError(f"not a circuit op: {op!r}") from None


@dataclass(frozen=True)
class Circuit:
    """Ordered ops over labelled wires; immutable after construction."""

    labels: tuple[int, ...]
    ops: tuple = ()

    def __post_init__(self):
        labels = tuple(int(v) for v in self.labels)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "ops", tuple(self.ops))
        if len(set(labels)) != len(labels) or any(v < 1 for v in labels):
            raise ValueError(f"labels must be distinct positive integers, got {labels}")
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


# ---------------------------------------------------------------------------
# serialization

class CircuitParseError(ValueError):
    pass


def serialize(circuit: Circuit) -> str:
    lines = ["MODES " + " ".join(str(v) for v in circuit.labels)]
    lines.extend(spec_of(op).line(op) for op in circuit.ops)
    return "\n".join(lines) + "\n"


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
