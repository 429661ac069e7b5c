"""Checks of the benchmark itself, run at the start of every run.py invocation.

    python3 perfbench/selfcheck.py

- self time and inclusive time come out right on a synthetic nest of spans;
- BENCHMARK.json (when present) names exactly the metrics run.py reports.

The two checks that need a real traced run, that every wrapper is removed
afterwards and that traced and untraced certificates are byte-identical,
are made by run.py on every `--trace 1` run.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from layers import per_layer_spec
from tracer import self_times, summarize

ROOT = Path(__file__).resolve().parent.parent


def _close(a, b):
    return abs(a - b) < 1e-9


def check_span_arithmetic() -> list[str]:
    # span: [name, op, parent, start, end, outermost-of-its-name]
    spans = [
        ["a", 0, -1, 0.0, 10.0, True],   # 0: children 1 and 2 cover 3 + 4
        ["b", 0, 0, 1.0, 4.0, True],     # 1: leaf
        ["a", 0, 0, 5.0, 9.0, False],    # 2: recursive a, child 3 covers 1
        ["c", 0, 2, 6.0, 7.0, True],     # 3: leaf
        ["d", 1, -1, 20.0, 30.0, True],  # 4: overlapping children cover [21, 26]
        ["e", 1, 4, 21.0, 25.0, True],
        ["e", 1, 4, 23.0, 26.0, True],
    ]
    want_self = [3.0, 3.0, 3.0, 1.0, 5.0, 4.0, 3.0]
    errors = [f"self time of span {i}: {got} != {want}"
              for i, (got, want) in enumerate(zip(self_times(spans), want_self))
              if not _close(got, want)]
    stats = summarize(spans)
    if not (_close(stats["a"]["incl_s"], 10.0) and stats["a"]["calls"] == 2
            and _close(stats["a"]["self_s"], 6.0)):
        errors.append(f"summary of the synthetic spans is wrong: {stats['a']}")
    return errors


def check_benchmark_json(end_to_end_names) -> list[str]:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return []
    spec = json.loads(path.read_text())
    errors = []
    if [m["name"] for m in spec["end_to_end"]] != list(end_to_end_names):
        errors.append("BENCHMARK.json end_to_end names differ from run.py's metrics")
    if spec["per_layer"] != per_layer_spec():
        errors.append("BENCHMARK.json per_layer entries differ from layers.per_layer_spec()")
    return errors


def run(end_to_end_names) -> list[str]:
    return check_span_arithmetic() + check_benchmark_json(end_to_end_names)


if __name__ == "__main__":
    from run import END_TO_END

    problems = run([name for name, _ in END_TO_END])
    for p in problems:
        print(f"selfcheck: {p}")
    print("selfcheck: ok" if not problems else "selfcheck: FAILED")
    sys.exit(1 if problems else 0)
