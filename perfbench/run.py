"""The equifan benchmark: time to certificate and time to verdict.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; it builds nothing and imports equifan
from `src/`.  NAME is one of plain-ladder, canonical-nd, symmetric, or
`all` to run each in turn.

It first starts SETUP_SAMPLES set-up-only interpreters.  With `--trace 0`
it then runs passes until S seconds are used (at least MIN_PASSES).  A pass
is one fresh interpreter resolving every case of the workload and then a
second fresh interpreter verifying every certificate, the way two
`equifan resolve` / `equifan verify` runs are for a user, so nothing one
pass computes can be reused by the next.  The end-to-end metrics are
medians over the passes (set-up over every interpreter that set up):

  resolve_ref, verify_ref  the work of one resolve / verify pass in `ref`
                           units: each op's wall time times the speed of
                           the host while it ran, measured by timing a
                           fixed reference loop every 0.25 s (child.py)
  setup_s                  interpreter start to the first resolve (import,
                           inputs, groups) in SETUP_SAMPLES set-up-only
                           interpreters, scaled to the nominal host speed
                           by the reference loop timed just after it
  peak_rss_mib             peak resident set of the pass's interpreters

The raw wall times resolve_s, verify_s and setup_raw_s are printed beside
them but not gated: this host's speed drifts by 10-30 % within seconds,
which the ref units and the speed scaling cancel and the raw times do not.

With `--trace 1` it runs one untraced and one traced pass and reports the
per-layer metrics of the traced one (see layers.py) and the tracing
overhead in ref units.  Spans are written to .perfbench_out/<workload>-seed<N>/.

Every op (one resolve or one verify of one case) is checked: it must not
raise, the command line must exit 0, verification must return no
violation, every pass must write the same certificate bytes, seed 0 must
reproduce the pinned sha256 of every certificate, and an independent
sympy oracle (oracle.py) must accept every final complex.  A traced pass
must write the same bytes as the untraced one and leave no wrapper behind.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ops, "failed": failed ops, "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import layers
import selfcheck
from workloads import PINNED_SHA256, WHY, WORKLOADS, fan_text, make_cases

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

SETUP_SAMPLES = 7
MIN_PASSES = 2
# a workload's run ends by this many seconds: children are killed at the
# deadline, and no pass starts that could end after HARD_LIMIT_S
DEADLINE_S = 175
HARD_LIMIT_S = 150

# gated metrics, in BENCHMARK.json; a time in `ref` units is the work of a
# pass counted in runs of the reference loop timed all through it (child.py)
END_TO_END = [
    ("resolve_ref", "ref"),
    ("verify_ref", "ref"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
]
# printed with them but not gated: their spread is the host's speed drift
RAW_TIMES = [
    ("resolve_s", "s"),
    ("verify_s", "s"),
    ("setup_raw_s", "s"),
]


class ChildFailed(RuntimeError):
    pass


def spawn(role: str, workload: str, seed: int, workdir: Path, trace: str, deadline: float) -> dict:
    """Run child.py in a fresh interpreter and return its report."""
    cmd = [sys.executable, str(HERE / "child.py"), role, workload, str(seed), str(workdir), trace]
    t_spawn = perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - t_spawn))
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{role} pass was still running at the {DEADLINE_S} s deadline")
    wall = perf_counter() - t_spawn
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{role} pass exited {proc.returncode}: {proc.stderr.strip()[-800:]}")
    report = json.loads(lines[-1])
    # perf_counter is the system-wide monotonic clock, shared with the child
    report["setup_raw_s"] = report["t_ready"] - t_spawn
    report["wall_s"] = wall
    return report


def run_pass(workload, seed, workdir, deadline, trace="0") -> dict:
    resolve = spawn("resolve", workload, seed, workdir, trace, deadline)
    verify = spawn("verify", workload, seed, workdir, trace, deadline)
    return {"resolve": resolve, "verify": verify,
            "wall_s": resolve["wall_s"] + verify["wall_s"]}


def pass_seconds(report) -> float:
    return sum(op["seconds"] for op in report["ops"] if op["ok"])


def pass_refs(report) -> float:
    return sum(op["ref"] for op in report["ops"] if op["ok"])


class Checks:
    """Outcome of every output check, and the op tally."""

    def __init__(self, workload, seed):
        self.cases = make_cases(workload, seed)
        self.pinned = PINNED_SHA256[workload] if seed == 0 else None
        self.first_sha: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.outcomes = {"ops raise nothing, cli exits 0, no violation": True,
                         "same certificate bytes on every pass": True}
        if self.pinned is not None:
            self.outcomes["certificate sha256 equals the pinned one"] = True

    def _fail(self, outcome, message):
        self.outcomes[outcome] = False
        self.problems.append(message)

    def check_pass(self, p: dict, label: str):
        for role in ("resolve", "verify"):
            for case, op in zip(self.cases, p[role]["ops"]):
                self.attempted += 1
                bad = False
                if not op["ok"]:
                    self._fail("ops raise nothing, cli exits 0, no violation",
                               f"{label} {role} {case.name}: {op['error']}")
                    bad = True
                elif role == "resolve":
                    first = self.first_sha.setdefault(case.name, op["sha256"])
                    if op["sha256"] != first:
                        self._fail("same certificate bytes on every pass",
                                   f"{label} {case.name}: certificate differs from the first pass")
                        bad = True
                    if self.pinned is not None and op["sha256"] != self.pinned[case.name]:
                        self._fail("certificate sha256 equals the pinned one",
                                   f"{label} {case.name}: sha256 {op['sha256'][:16]}... "
                                   "is not the pinned one")
                        bad = True
                self.failed += bad

    def check_oracle(self, workdir: Path):
        """Oracle on the certificates of the pass just run; one failed op per bad case."""
        from oracle import check_certificate

        name = "independent oracle accepts every final complex"
        self.outcomes.setdefault(name, True)
        for case in self.cases:
            path = workdir / f"{case.name}.cert"
            if not path.is_file():
                continue
            failures = check_certificate(path.read_text(), case)
            if failures:
                self._fail(name, f"oracle {case.name}: {failures[:3]}")
                self.failed += 1

    def check_trace(self, untraced: dict, traced: dict):
        name = "traced certificates identical to untraced"
        self.outcomes[name] = [o["sha256"] for o in untraced["resolve"]["ops"]] == [
            o["sha256"] for o in traced["resolve"]["ops"]]
        if not self.outcomes[name]:
            self.problems.append(name + ": no")
        name = "every wrapper removed after the traced pass"
        left = traced["resolve"]["trace"]["leftover_wrappers"] + \
            traced["verify"]["trace"]["leftover_wrappers"]
        self.outcomes[name] = not left
        if left:
            self.problems.append(f"wrappers left behind: {left[:5]}")

    @property
    def correct(self) -> bool:
        return self.failed == 0 and all(self.outcomes.values())


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def end_to_end(passes, setups) -> dict:
    """Samples of every end-to-end and raw time metric, one per pass or set-up."""
    return {
        "resolve_ref": [pass_refs(p["resolve"]) for p in passes],
        "verify_ref": [pass_refs(p["verify"]) for p in passes],
        "setup_s": [c["setup_raw_s"] * c["speed"] for c in setups],
        "setup_raw_s": [c["setup_raw_s"] for c in setups]
        + [p["resolve"]["setup_raw_s"] for p in passes],
        "peak_rss_mib": [max(p["resolve"]["maxrss_kib"], p["verify"]["maxrss_kib"]) / 1024
                         for p in passes],
        "resolve_s": [pass_seconds(p["resolve"]) for p in passes],
        "verify_s": [pass_seconds(p["verify"]) for p in passes],
    }


def print_end_to_end(samples):
    print(f"{'end-to-end metric':17s} {'median':>12s} {'q1':>12s} {'q3':>12s} unit  samples")
    for name, unit in END_TO_END + RAW_TIMES:
        q1, q3 = quartiles(samples[name])
        gate = "" if (name, unit) in END_TO_END else "  (raw, not gated)"
        print(f"{name:17s} {statistics.median(samples[name]):12.6f} {q1:12.6f} {q3:12.6f} "
              f"{unit:5s} {len(samples[name])}{gate}")


def run_workload(workload: str, seed: int, seconds: float, trace: str) -> dict:
    workdir = OUT / f"{workload}-seed{seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    checks = Checks(workload, seed)
    for case in checks.cases:
        (workdir / f"{case.name}.fan").write_text(fan_text(case))
    problems = selfcheck.run([name for name, _ in END_TO_END])
    if problems:
        checks.outcomes["benchmark self-check"] = False
        checks.problems += problems

    print(f"workload {workload} (seed {seed}): {WHY[workload]}")
    t_start = perf_counter()
    deadline = t_start + DEADLINE_S
    setups = [spawn("setup", workload, seed, workdir, "0", deadline)
              for _ in range(SETUP_SAMPLES)]
    if trace == "1":
        untraced = run_pass(workload, seed, workdir, deadline)
        checks.check_pass(untraced, "untraced pass")
        checks.check_oracle(workdir)
        traced = run_pass(workload, seed, workdir, deadline, trace="1")
        checks.check_pass(traced, "traced pass")
        checks.check_trace(untraced, traced)
        texts = [(workdir / f"{c.name}.cert").read_text() for c in checks.cases
                 if (workdir / f"{c.name}.cert").is_file()]
        wall = {role: pass_seconds(untraced[role]) for role in ("resolve", "verify")}
        overhead = {role: pass_refs(traced[role]) / pass_refs(untraced[role]) - 1
                    if pass_refs(untraced[role]) else 0.0 for role in wall}
        metrics = layers.layer_metrics(traced["resolve"]["trace"], traced["verify"]["trace"],
                                       texts, overhead, wall)
        print("untraced pass:")
        print_end_to_end(end_to_end([untraced], setups))
        print(f"traced pass: {traced['resolve']['trace']['spans']} + "
              f"{traced['verify']['trace']['spans']} spans")
        print(f"{'per-layer metric':52s} {'value':>14s} {'unit':6s} samples")
        for layer, names, moves in layers.LAYERS:
            print(f"-- {layer}: moves {moves}")
            for name in names:
                base = layers.RATIO_BASES.get(name)
                print(f"   {name:49s} {metrics[name]:14.6g} {layers.unit_of(name):6s} 1"
                      + (f"   ({base})" if base else ""))
        out = {name: {"value": metrics[name], "unit": layers.unit_of(name)} for name in metrics}
    else:
        passes = []
        while True:
            p = run_pass(workload, seed, workdir, deadline)
            checks.check_pass(p, f"pass {len(passes) + 1}")
            if not passes:
                checks.check_oracle(workdir)
            passes.append(p)
            elapsed = perf_counter() - t_start
            longest = max(q["wall_s"] for q in passes)
            if elapsed + longest > HARD_LIMIT_S or (
                    len(passes) >= MIN_PASSES and elapsed + longest > seconds):
                break
        samples = end_to_end(passes, setups)
        print_end_to_end(samples)
        out = {name: {"value": statistics.median(samples[name]), "unit": unit}
               for name, unit in END_TO_END}
    print(f"ops attempted {checks.attempted}, failed {checks.failed}, fail_ratio "
          f"{checks.failed / checks.attempted if checks.attempted else 0.0:.6g}; "
          f"measured for {perf_counter() - t_start:.1f} s")
    print("output checks:")
    for name, ok in checks.outcomes.items():
        print(f"  {'pass' if ok else 'FAIL'}  {name}")
    for p in checks.problems[:20]:
        print(f"  problem: {p}")
    return {"correct": checks.correct, "attempted": checks.attempted,
            "failed": checks.failed, "metrics": out}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "equifan" / "__init__.py").is_file():
        print(f"error: {ROOT / 'src' / 'equifan'} not found; run from an equifan checkout",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {w: run_workload(w, args.seed, args.seconds, args.trace) for w in names}
    except ChildFailed as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    if args.workload == "all":
        result = {"correct": all(r["correct"] for r in results.values()),
                  "attempted": sum(r["attempted"] for r in results.values()),
                  "failed": sum(r["failed"] for r in results.values()),
                  "metrics": {w: r["metrics"] for w, r in results.items()}}
    else:
        result = results[args.workload]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
