"""Self-test of the benchmark harness; exits non-zero on the first problem.

    python3 bench/selftest.py

Runs the smallest commands of every kind in each workload and requires them
to pass their checks; then corrupts their outputs (a CSV cell, a circuit
gain, a verdict, ...) and requires the checker to call each one wrong;
then checks that crashes and usage errors count as failures, any other
unexpected exit code as a wrong answer, and that the tracer reaches every
namespace and repeats its counts exactly.
"""

from __future__ import annotations

import re
import shutil
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import bootstrap


class SelfTestError(Exception):
    pass


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SelfTestError(message)


def _bump_number(text: str, pattern: str, delta: float) -> str:
    """Add delta to the first number captured by ``pattern``."""
    m = re.search(pattern, text)
    expect(m is not None, f"pattern {pattern!r} not in output")
    value = float(m.group(1)) + delta
    return text[: m.start(1)] + repr(value) + text[m.end(1) :]


def _first_swept_cell(out: str) -> str:
    lines = out.splitlines()
    cells = lines[1].split(",")
    i = next(i for i in range(1, 5) if cells[i] != "nan")
    cells[i] = repr(float(cells[i]) + 1e-6)
    return "\n".join([lines[0], ",".join(cells), *lines[2:]]) + "\n"


# One deliberate corruption per command kind.
CORRUPT = {
    "fidelity": _first_swept_cell,
    "threshold": lambda out: _bump_number(out, r"^(\S+)", 0.01),
    "verify": lambda out: out.replace('"correctable": true', '"correctable": false', 1),
    "verify-five": lambda out: re.sub(r'"correctable": (true|false)', lambda m: '"correctable": ' + ("false" if m.group(1) == "true" else "true"), out, count=1),
    "code-build": lambda out: out.replace("\n0 ", "\n2 ", 1),
    "spacetime": lambda out: re.sub(r'"valid": (true|false)', lambda m: '"valid": ' + ("false" if m.group(1) == "true" else "true"), out, count=1),
    "synth-decoder": lambda out: _bump_number(out, r"gain=(\S+)", 0.5),
    "synth-unimodular": lambda out: _bump_number(out, r"gain=(\S+)", 0.5),
    "synth-dense": lambda out: _bump_number(out, r"gain=(\S+)", 1e-6),
}


def smallest_per_kind(cmds, k: int = 2):
    picked = []
    for kind in sorted({c.kind for c in cmds}):
        picked += sorted((c for c in cmds if c.kind == kind), key=lambda c: c.size)[:k]
    return picked


def check_workloads(harness, workloads, workdir: Path) -> dict:
    lists = {}
    for name in workloads.WORKLOADS:
        cmds = smallest_per_kind(workloads.build(name, 0, workdir / name))
        lists[name] = cmds
        for cmd in cmds:
            outcome = harness.execute(cmd)
            status, detail = harness.judge(cmd, outcome)
            expect(status == "ok", f"{cmd.text()}: {status} {detail}")
            bad = replace(outcome, stdout=CORRUPT[cmd.kind](outcome.stdout))
            expect(bad.stdout != outcome.stdout, f"{cmd.kind}: corruption left the output unchanged")
            expect(harness.judge(cmd, bad)[0] == "wrong", f"{cmd.text()}: corrupted output passed its check")
            garbage = replace(outcome, stdout="r,F1\nnot a number\n")
            expect(harness.judge(cmd, garbage)[0] == "wrong", f"{cmd.text()}: unreadable output not judged wrong")
            refused = replace(outcome, exit=2)
            expect(harness.judge(cmd, refused)[0] == "failed", f"{cmd.text()}: exit 2 not counted as failed")
            # Exit 1 is a failed verification (fidelity off the gate, a
            # synthesized circuit off its target), exit 3 an unreachable
            # threshold: answers, and wrong ones where the reference differs.
            for code in {0, 1, 3} - {cmd.expect_exit}:
                status = harness.judge(cmd, replace(outcome, exit=code))[0]
                expect(status == "wrong", f"{cmd.text()}: unexpected exit {code} judged {status}, not wrong")
        print(f"ok  {name}: {len(cmds)} commands pass; each corrupted output or unexpected exit is judged wrong")
    return lists


def check_failures(harness, workloads) -> None:
    # An option value starting with '-' without '=' makes argparse exit.
    cmd = workloads.Command("fidelity", ("fidelity", "--alpha", "-0.3+1i"), 1, 0, lambda out: None)
    outcome = harness.execute(cmd)
    expect(outcome.error is not None and "SystemExit" in outcome.error, "argparse exit was not caught")
    expect(harness.judge(cmd, outcome)[0] == "failed", "an escaped SystemExit is not a failure")
    # A verdict contradicting the reference is judged wrong, not merely failed.
    verify = workloads.Command("verify", ("verify", "five", "--erase=1,2,3,4"), 4, 0, lambda out: None)
    expect(harness.judge(verify, harness.execute(verify))[0] == "wrong", "a wrong verdict was not judged wrong")
    print("ok  crashes and usage errors count as failed, contradicting verdicts as wrong")


def check_reference() -> None:
    import reference as ref

    # The five-mode code corrects exactly its four designed erasures among these.
    for erased, ok in (({3, 4, 5}, True), ({2, 3}, True), ({2, 4}, True), ({1, 5}, True), ({1, 2}, False), ({1, 2, 3, 4}, False)):
        got = ref.correctable(ref.FIVE_MODE_X, ref.FIVE_MODE_P, [m - 1 for m in erased], 5)
        expect(got == ok, f"reference correctability of {sorted(erased)}: {got}")
    expect(ref.int_rank([[2, 4], [1, 2], [0, 0]]) == 1, "int_rank of a rank-1 matrix")
    expect(all(ref.general_vertex_verdicts(5)), "general-5 code corrects every vertex erasure")
    print("ok  reference ranks and correctability")


def check_tracing(harness, cmds) -> None:
    import cvrep
    import tracing

    names = ("circuits.recovery.run", "circuits.synthesis.symplectic_of", "cli.fidelity_sweep", "circuits.interpreter.op_map")
    counts = []
    for _ in range(2):
        tracer = tracing.Tracer()
        tracer.install()
        try:
            for dotted in names:
                module, attr = dotted.rsplit(".", 1)
                obj = getattr(sys.modules[f"cvrep.{module}"], attr)
                expect(hasattr(obj, "__wrapped__"), f"cvrep.{dotted} is not wrapped")
            for cmd in cmds:
                harness.execute(cmd)
        finally:
            tracer.uninstall()
        metrics = tracer.metrics(0, 0.0)
        counts.append({k: v for k, (v, unit) in metrics.items() if unit != "s"})
        expect(set(metrics) == set(tracing.metric_names()), "traced metrics differ from the declared names")
    expect(not hasattr(cvrep.circuits.recovery.run, "__wrapped__"), "uninstall left a wrapper behind")
    expect(counts[0] == counts[1], "call counts differ between two traced runs of the same commands")
    expect(counts[0]["cli.main.calls"] == len(cmds), "one cli.main span per command")
    print(f"ok  tracing reaches re-exported names; {len(counts[0])} counts repeat exactly")


def main() -> int:
    bootstrap.prepare()
    import harness
    import workloads

    (bootstrap.ROOT / ".bench_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=bootstrap.ROOT / ".bench_work"))
    try:
        lists = check_workloads(harness, workloads, workdir)
        check_failures(harness, workloads)
        check_reference()
        check_tracing(harness, [c for cmds in lists.values() for c in cmds])
    except SelfTestError as exc:
        print(f"FAIL {exc}")
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
