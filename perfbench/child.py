"""One pass of a workload in a fresh interpreter, as one `equifan` run is for a user.

    python3 perfbench/child.py ROLE WORKLOAD SEED WORKDIR TRACE

ROLE is `setup` (build the inputs and stop), `resolve` (resolve every case
and write its certificate into WORKDIR) or `verify` (replay every
certificate in WORKDIR).  TRACE 1 installs the span recorder after set-up.
The last line of standard output is a JSON report; run.py starts this
script and reads that line.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import resource
import signal
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
REFERENCE_ROUNDS = 4
SAMPLE_PERIOD_S = 0.25
# about the reference loop's median time on the 2-vCPU Xeon host the bounds
# were set on; set-up times are reported as if the host ran at that speed
REFERENCE_NOMINAL_S = 0.004
SETUP_REFERENCE_SAMPLES = 9


def peak_rss_kib() -> int:
    """Peak resident set of this interpreter image, in KiB.

    getrusage's ru_maxrss also counts the parent's resident set at fork
    time, so the VmHWM of the exec'd image is read where Linux provides it.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _reference_loop():
    """A fixed exact-rational elimination that uses no equifan code (about 5 ms)."""
    for k in range(REFERENCE_ROUNDS):
        n = 6
        rows = [[Fraction((i * 7 + j * 13 + k) % 11 - 5, 1 + (i + j + k) % 3)
                 for j in range(n + 1)] for i in range(n)]
        for c in range(n):
            p = next((r for r in range(c, n) if rows[r][c] != 0), None)
            if p is None:
                continue
            rows[c], rows[p] = rows[p], rows[c]
            for r in range(n):
                if r != c and rows[r][c] != 0:
                    f = rows[r][c] / rows[c][c]
                    rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]


def _time_reference() -> float:
    """Wall time of one reference loop, with the garbage collector off."""
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        _reference_loop()
        return perf_counter() - t0
    finally:
        if gc_was_enabled:
            gc.enable()


class SpeedSampler:
    """Times the reference loop every SAMPLE_PERIOD_S of wall time, from a timer signal.

    The host's speed drifts by 10-30 % within seconds, and the drift moves
    this loop and equifan alike.  An op's time in reference units is its
    wall time, less the time spent in the sampler, times the mean of
    1 / (loop time) over the samples taken during it: the work done
    measured in loops.  The loop runs with the garbage collector off, so
    the program's heap cannot change it.  In a traced pass its time (about
    2 %) falls into the self time of whichever span is open.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, loop seconds)

    def _tick(self, signum, frame):
        t0 = perf_counter()
        self.samples.append((t0, _time_reference()))

    def __enter__(self):
        self._tick(None, None)
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._tick(None, None)

    def op_time(self, t0: float, t1: float) -> tuple[float, float]:
        """(wall seconds less sampling, reference units) of an op that ran from t0 to t1."""
        inside = [d for t, d in self.samples if t0 <= t < t1]
        seconds = (t1 - t0) - sum(inside)
        near = [d for t, d in self.samples if t0 - SAMPLE_PERIOD_S <= t < t1 + SAMPLE_PERIOD_S]
        return seconds, seconds * sum(1 / d for d in near) / len(near)


def _cli(argv) -> tuple[int, str]:
    """Run `equifan ARGV` in this process; return its exit code and output."""
    import equifan.cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        try:
            code = equifan.cli.main(argv)
        except SystemExit as e:  # argparse usage errors
            code = e.code if isinstance(e.code, int) else 2
    return code, out.getvalue()


def _resolve(case, inputs, fan_path, cert_path) -> tuple[str, float, float]:
    """Resolve one case; return its certificate text and the op's start and end."""
    import equifan.fanio
    import equifan.resolve

    fan, cx, elements = inputs
    if case.generators:  # group workloads go through the command line
        t0 = perf_counter()
        code, out = _cli(["resolve", str(fan_path), "--mode", case.mode, "-o", str(cert_path)])
        t1 = perf_counter()
        if code != 0:
            raise RuntimeError(f"equifan resolve exited {code}: {out.strip()[-300:]}")
        return cert_path.read_text(), t0, t1
    t0 = perf_counter()
    cert = equifan.resolve.resolve_equivariant(cx, elements, mode=case.mode)
    text = equifan.fanio.write_certificate(cert, fan)
    t1 = perf_counter()
    cert_path.write_text(text)
    return text, t0, t1


def _verify(case, inputs, fan_path, cert_path) -> tuple[str, float, float]:
    """Verify one certificate; return its text and the op's start and end."""
    import equifan.fanio

    fan = inputs[0]
    text = cert_path.read_text()
    if case.generators:
        t0 = perf_counter()
        code, out = _cli(["verify", str(cert_path), str(fan_path)])
        t1 = perf_counter()
        if code != 0 or "certificate verified" not in out:
            raise RuntimeError(f"equifan verify exited {code}: {out.strip()[-300:]}")
        return text, t0, t1
    t0 = perf_counter()
    violations = equifan.fanio.verify_certificate(equifan.fanio.parse_certificate(text), fan)
    t1 = perf_counter()
    if violations:
        raise RuntimeError(f"violations: {violations[:3]}")
    return text, t0, t1


def main(argv) -> int:
    role, workload, seed, workdir, trace = argv[1], argv[2], int(argv[3]), Path(argv[4]), argv[5]
    if role not in ("setup", "resolve", "verify"):
        raise SystemExit(f"unknown role {role!r}")
    from workloads import make_cases

    import equifan.cli  # noqa: F401
    import equifan.fanio
    import equifan.groups

    if not Path(equifan.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"equifan imported from {equifan.__file__}, not from {ROOT / 'src'}")

    cases = make_cases(workload, seed)
    inputs = []
    for case in cases:
        fan = equifan.fanio.parse_fan((workdir / f"{case.name}.fan").read_text())
        if fan.group_generators:
            elements = equifan.groups.generate_group(fan.group_generators)
        else:
            elements = equifan.groups.trivial_group(fan.ambient_rank)
        inputs.append((fan, fan.to_complex(), elements))
    t_ready = perf_counter()
    report = {"t_ready": t_ready, "ops": []}
    if role == "setup":
        # the host's speed just after set-up, to report set-up at nominal speed
        refs = sorted(_time_reference() for _ in range(SETUP_REFERENCE_SAMPLES))
        report["speed"] = REFERENCE_NOMINAL_S / refs[len(refs) // 2]
        print(json.dumps(report))
        return 0

    tracer = None
    if trace == "1":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    op_fn = _resolve if role == "resolve" else _verify
    sampler = SpeedSampler()
    timed = []
    with sampler:
        try:
            for op, (case, inp) in enumerate(zip(cases, inputs)):
                if tracer is not None:
                    tracer.begin_op(op)
                entry = {"case": case.name, "ok": False, "seconds": None, "sha256": None,
                         "error": None}
                try:
                    text, t0, t1 = op_fn(
                        case, inp, workdir / f"{case.name}.fan", workdir / f"{case.name}.cert"
                    )
                except Exception as e:  # an op that raises counts as failed; the pass goes on
                    entry["error"] = f"{type(e).__name__}: {e}"
                else:
                    entry.update(ok=True, seconds=t1 - t0,
                                 sha256=hashlib.sha256(text.encode()).hexdigest())
                    timed.append((entry, t0, t1))
                report["ops"].append(entry)
        finally:
            if tracer is not None:
                tracer.uninstall()
    for entry, t0, t1 in timed:
        entry["seconds"], entry["ref"] = sampler.op_time(t0, t1)
    report["maxrss_kib"] = peak_rss_kib()
    if tracer is not None:
        from tracer import summarize

        tracer.write(str(workdir / f"spans-{role}.jsonl"))
        report["trace"] = {
            "stats": summarize(tracer.spans),
            "counts": dict(tracer.counts),
            "spans": len(tracer.spans),
            "leftover_wrappers": tracer.leftover_wrappers(),
        }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
