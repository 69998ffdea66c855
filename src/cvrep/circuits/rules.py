"""Local circuit rewrite rules.

Each rule replaces a short window of ops with an exactly equivalent one —
equal as symplectic maps (and, for the measurement rule, equal as quantum
channels with identical outcome statistics).  ``rewrite(circuit, rule,
position)`` applies one rule at one site and returns a new circuit; it
never searches.  Each rule in ``_RULES`` is its window's op types, whose
count is the window's width, and a matcher: ``rewrite`` tests the window's
op types, and the matcher tests only the wires, gains and side conditions.

    rule  pattern (window)                   replacement
    ----  ---------------------------------  -------------------------------------------
    R1    Qnd(c>t,a) Qnd(t>c,b)              Sq(c,1+ab) Qnd(t>c,b) Qnd(c>t,a) Sq(t,1/(1+ab))
          [needs 1+ab != 0]
    R2    Sq(m,a) Qnd(m>t,b)                 Qnd(m>t,ab) Sq(m,a)
    R3    Sq(m,a) Qnd(c>m,b)                 Qnd(c>m,b/a) Sq(m,a)
    R4    Qnd(c>t,a) Qnd(t>u,b)   [u != c]   Qnd(t>u,b) Qnd(c>u,ab) Qnd(c>t,a)
    R5    Qnd(c>t,a) Qnd(u>c,b)   [u != t]   Qnd(u>c,b) Qnd(c>t,a) Qnd(u>t,-ab)
    R6    Qnd(c>t,a)                         F(t) F(c) Qnd(t>c,-a) Finv(t) Finv(c)
    R7    Bs(a,b)                            Qnd(a>b,-1) Qnd(b>a,1/2) Sq(a,s2) Sq(b,1/s2) Pi(b)
    R8    Qnd(a>b,1) Qnd(b>a,-1)             Bs(a,b) Swap(a,b) Sq(a,s2) Sq(b,s2) Qnd(b>a,-1) Sq(a,1/2)
    MC    Qnd(c>t,a) Meas(c,x,reg)           Meas(c,x,reg) Ff(reg,t,x,a)

(Sq = SqueezeFactor, Bs = balanced beam splitter, F = Fourier, s2 = sqrt 2.)

R1 flips the orientation of a back-to-back coupling pair at the price of two
squeezers; it degenerates exactly when 1 + ab = 0, which is the case R8
handles (a, b) = (1, -1).  R4 and R5 slide one coupling through another that
shares a wire, emitting the commutator coupling.  R6 conjugates a coupling
by quarter turns to swap its control and target.  MC is deferred
measurement: a coupling whose control is measured right away in x collapses
to a classical feedforward.
"""

from __future__ import annotations

from math import sqrt

from .ir import (
    BeamSplitterPM,
    Circuit,
    FeedforwardDisplace,
    Fourier,
    InverseFourier,
    Measure,
    Pi,
    Qnd,
    SqueezeFactor,
    Swap,
)

__all__ = ["rewrite", "rule_ids", "RewriteError"]

_DEGENERATE = 1e-12


class RewriteError(ValueError):
    pass


def _r1(first, second):
    if second.control != first.target or second.target != first.control:
        return None
    a, b = first.gain, second.gain
    if abs(1.0 + a * b) <= _DEGENERATE:
        raise RewriteError(
            f"R1 is singular at gains ({a}, {b}): 1 + ab = 0 (use R8 for the unit pair)"
        )
    c, t = first.control, first.target
    return [
        SqueezeFactor(c, 1.0 + a * b),
        Qnd(t, c, b),
        Qnd(c, t, a),
        SqueezeFactor(t, 1.0 / (1.0 + a * b)),
    ]


def _r2(first, second):
    if second.control != first.mode:
        return None
    return [Qnd(second.control, second.target, first.factor * second.gain), first]


def _r3(first, second):
    if second.target != first.mode:
        return None
    return [Qnd(second.control, second.target, second.gain / first.factor), first]


def _r4(first, second):
    if second.control != first.target or second.target == first.control:
        return None
    c, t, a = first.control, first.target, first.gain
    u, b = second.target, second.gain
    return [Qnd(t, u, b), Qnd(c, u, a * b), Qnd(c, t, a)]


def _r5(first, second):
    if second.target != first.control or second.control == first.target:
        return None
    c, t, a = first.control, first.target, first.gain
    u, b = second.control, second.gain
    return [Qnd(u, c, b), Qnd(c, t, a), Qnd(u, t, -a * b)]


def _r6(op):
    c, t, a = op.control, op.target, op.gain
    return [Fourier(t), Fourier(c), Qnd(t, c, -a), InverseFourier(t), InverseFourier(c)]


def _r7(op):
    a, b = op.a, op.b
    return [
        Qnd(a, b, -1.0),
        Qnd(b, a, 0.5),
        SqueezeFactor(a, sqrt(2.0)),
        SqueezeFactor(b, 1.0 / sqrt(2.0)),
        Pi(b),
    ]


def _r8(first, second):
    if second.control != first.target or second.target != first.control:
        return None
    if first.gain != 1.0 or second.gain != -1.0:
        return None
    a, b = first.control, first.target
    return [
        BeamSplitterPM(a, b),
        Swap(a, b),
        SqueezeFactor(a, sqrt(2.0)),
        SqueezeFactor(b, sqrt(2.0)),
        Qnd(b, a, -1.0),
        SqueezeFactor(a, 0.5),
    ]


def _mc(first, second):
    if second.mode != first.control or second.basis != "x":
        return None
    return [second, FeedforwardDisplace(second.register, first.target, "x", first.gain)]


_RULES = {  # rule -> (its window's op types, its matcher)
    "R1": ((Qnd, Qnd), _r1),
    "R2": ((SqueezeFactor, Qnd), _r2),
    "R3": ((SqueezeFactor, Qnd), _r3),
    "R4": ((Qnd, Qnd), _r4),
    "R5": ((Qnd, Qnd), _r5),
    "R6": ((Qnd,), _r6),
    "R7": ((BeamSplitterPM,), _r7),
    "R8": ((Qnd, Qnd), _r8),
    "MC": ((Qnd, Measure), _mc),
}


def rule_ids() -> tuple[str, ...]:
    return tuple(_RULES)


def rewrite(circuit: Circuit, rule: str, position: int) -> Circuit:
    """Apply one named rule at ops[position], returning a new circuit.

    ``rule`` is one of the names in :func:`rule_ids` ("R1".."R8", "MC").
    Raises RewriteError if it is not, the window falls off the end of the
    op list, the ops there don't match the rule's pattern, or a side
    condition fails.
    """
    if rule not in rule_ids():
        raise RewriteError(f"unknown rule {rule!r}; valid: {', '.join(_RULES)}")
    types, matcher = _RULES[rule]
    width = len(types)
    if not (0 <= position <= len(circuit.ops) - width):
        raise RewriteError(
            f"rule {rule} needs {width} op(s) at position {position}, but the "
            f"circuit has {len(circuit.ops)}"
        )
    window = circuit.ops[position : position + width]
    replacement = matcher(*window) if all(map(isinstance, window, types)) else None
    if replacement is None:
        got = " ".join(type(op).__name__ for op in window)
        raise RewriteError(f"rule {rule} does not match [{got}] at position {position}")
    new_ops = circuit.ops[:position] + tuple(replacement) + circuit.ops[position + width :]
    return circuit.with_ops(new_ops)
