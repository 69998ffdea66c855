"""Circuit intermediate representation.

A circuit is an ordered op list over named wires.  Wire labels are 1-based
integers (matching how modes are numbered in all I/O); a circuit that acts on
the survivors of an erasure keeps the original labels, e.g. ``labels=(1, 4,
5)``.  Ops reference wires by label, never by position.

Measurement results land in named classical registers; feedforward ops read
them.  Validation walks the op list once, tracking which wires are still
live and which registers have been written.

Every op type is written down once, in the op table ``OPS``: its text tag,
its ``key=value`` fields in constructor order (wires marked as wires) and,
for unitary ops, its gate block from :mod:`cvrep.gaussian`.  Serializing,
parsing, ``wires_of`` and the interpreter's ``run``, ``symplectic_of`` and
position check ``_fold_positions`` all read that one entry.

Serialization is line-oriented text, one op per line, after a ``MODES``
header naming the wires (optional on input: without it the wires are 1 to
the highest label used).  Numbers are printed as ``repr(float)``, without
the trailing ``.0`` of a whole number below 1e15, so parse(print(c))
reproduces the circuit bit-for-bit, the sign of a zero included.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import isfinite
from operator import attrgetter
from typing import Callable

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


@dataclass(frozen=True)
class Qnd:
    control: int
    target: int
    gain: float

    def __post_init__(self):
        if self.control == self.target:
            raise ValueError("qnd control and target must differ")
        if not isfinite(self.gain):
            raise ValueError("qnd gain must be finite")


@dataclass(frozen=True)
class BeamSplitterPM:
    a: int
    b: int

    def __post_init__(self):
        if self.a == self.b:
            raise ValueError("beam splitter modes must differ")


@dataclass(frozen=True)
class SqueezeFactor:
    mode: int
    factor: float

    def __post_init__(self):
        if self.factor == 0 or not isfinite(self.factor):
            raise ValueError(f"squeeze factor must be finite and nonzero, got {self.factor!r}")


@dataclass(frozen=True)
class PhaseShift:
    mode: int
    phi: float

    def __post_init__(self):
        if not isfinite(self.phi):
            raise ValueError("phase must be finite")


@dataclass(frozen=True)
class Fourier:
    mode: int


@dataclass(frozen=True)
class InverseFourier:
    mode: int


@dataclass(frozen=True)
class Pi:
    mode: int


@dataclass(frozen=True)
class Swap:
    a: int
    b: int

    def __post_init__(self):
        if self.a == self.b:
            raise ValueError("swap modes must differ")


@dataclass(frozen=True)
class Displace:
    mode: int
    alpha: complex

    def __post_init__(self):
        object.__setattr__(self, "alpha", g._amplitude(self.alpha))


@dataclass(frozen=True)
class TwoModeSqueeze:
    a: int
    b: int
    r: float

    def __post_init__(self):
        if self.a == self.b:
            raise ValueError("two-mode squeezer modes must differ")
        if not isfinite(self.r):
            raise ValueError("squeezing parameter must be finite")


@dataclass(frozen=True)
class Measure:
    mode: int
    basis: str
    register: str

    def __post_init__(self):
        if self.basis not in ("x", "p"):
            raise ValueError(f"basis must be 'x' or 'p', got {self.basis!r}")
        if not re.fullmatch(r"[A-Za-z_]\w*", self.register):
            raise ValueError(f"bad register name {self.register!r}")


@dataclass(frozen=True)
class FeedforwardDisplace:
    register: str
    target: int
    quad: str
    gain: float

    def __post_init__(self):
        if self.quad not in ("x", "p"):
            raise ValueError(f"quadrature must be 'x' or 'p', got {self.quad!r}")
        if not isfinite(self.gain):
            raise ValueError("feedforward gain must be finite")


@dataclass(frozen=True)
class Discard:
    mode: int


# ---------------------------------------------------------------------------
# the op table: each op type's text form, wires and gate, written down once

# A field's kind is the type that reads its text: int fields are the wires,
# float fields are written with _fmt, str fields as they are.
def _field(kind: type):
    """Field maker: ``(text key, attribute, kind)``; the attribute defaults to the key."""
    return lambda key, attr=None: (key, attr or key, kind)


_wire, _real, _text = _field(int), _field(float), _field(str)


def _getter(attrs: tuple[str, ...]) -> Callable[[object], tuple]:
    """op -> the tuple of its attributes named by (possibly dotted) ``attrs``."""
    if not attrs:
        return lambda op: ()
    get = attrgetter(*attrs)
    return get if len(attrs) > 1 else lambda op: (get(op),)


class OpSpec:
    """One op type: its text tag, its ``key=value`` fields and its gate.

    ``fields`` lists ``(text key, attribute, kind)`` in constructor order,
    and ``make`` builds the op from the field values.  A unitary op has a
    ``block`` (the gate's 2k x 2k matrix over its k wires: x of each wire
    in field order, then p of each) or, for a displacement, a ``shift``
    (its (x, p) mean displacement); either is called with the op's
    non-wire field values in order.  The interpreter's ``_fold`` applies
    them, and its ``_fold_positions`` applies the x part of blocks that
    map positions to positions alone.
    """

    def __init__(self, cls, tag, fields, *, block=None, shift=None, make=None):
        self.cls, self.tag, self.fields = cls, tag, fields
        self.block, self.shift = block, shift
        self.make = make or cls
        self.unitary = block is not None or shift is not None
        self.values = _getter(tuple(attr for _, attr, _ in fields))
        self.wires = _getter(tuple(attr for _, attr, kind in fields if kind is int))
        self.params = _getter(tuple(attr for _, attr, kind in fields if kind is not int))
        self._line = " ".join([tag, *(f"{key}={{}}" for key, _, _ in fields)])
        self._reals = [i for i, (_, _, kind) in enumerate(fields) if kind is float]

    def line(self, op) -> str:
        """The op as one line of circuit text."""
        values = list(self.values(op))
        for i in self._reals:
            values[i] = _fmt(values[i])
        return self._line.format(*values)

    def read(self, kv: dict[str, str]):
        """The op from its line's ``key=value`` pairs; KeyError if one is missing."""
        return self.make(*(kind(kv[key]) for key, _, kind in self.fields))


_SPECS = (
    OpSpec(Qnd, "QND", (_wire("c", "control"), _wire("t", "target"), _real("gain")), block=g.qnd_block),
    OpSpec(BeamSplitterPM, "BS", (_wire("a"), _wire("b")), block=g.beam_splitter_pm_block),
    OpSpec(SqueezeFactor, "SQ", (_wire("mode"), _real("factor")), block=g.squeeze_block),
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
    OpSpec(TwoModeSqueeze, "TMS", (_wire("a"), _wire("b"), _real("r")), block=g.two_mode_squeeze_block),
    OpSpec(Measure, "MEAS", (_wire("mode"), _text("basis"), _text("reg", "register"))),
    OpSpec(
        FeedforwardDisplace,
        "FF",
        (_text("reg", "register"), _wire("target"), _text("quad"), _real("gain")),
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


def wires_of(op) -> tuple[int, ...]:
    """Labels an op touches, in field order."""
    return spec_of(op).wires(op)


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
            for wire in wires_of(op):
                if wire not in live:
                    raise ValueError(
                        f"op {i} ({type(op).__name__}) references wire {wire}, "
                        f"which is not live"
                    )
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


def _fmt(v: float) -> str:
    """``repr`` of the float, without the ``.0`` of a whole number below 1e15: -0.0 prints as -0."""
    text = repr(float(v))
    return text[:-2] if text.endswith(".0") and abs(v) < 1e15 else text


def serialize(circuit: Circuit) -> str:
    lines = ["MODES " + " ".join(str(v) for v in circuit.labels)]
    lines.extend(spec_of(op).line(op) for op in circuit.ops)
    return "\n".join(lines) + "\n"


def _fields(tokens: list[str], lineno: int) -> dict[str, str]:
    out = {}
    for tok in tokens:
        if "=" not in tok:
            raise CircuitParseError(f"line {lineno}: expected key=value, got {tok!r}")
        key, val = tok.split("=", 1)
        out[key] = val
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
            op = spec.read(_fields(rest, lineno))
        except (KeyError, ValueError) as exc:
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
