"""Every command ends in its documented exit code on mutated input.

Derandomized token and line mutations of the corpus fans and of their
certificates run through all seven commands of `equifan`: each run must
exit 0 (success), 1 (semantic failure) or 2 (parse failure), print no
traceback and finish within a few seconds.  Verification compares the
certificate's header first and, when it agrees, resolves the input again
and compares the whole text, so it costs at most a resolve and a write;
the time bound covers it.  Most runs call
`cli.main` in-process; a few run `python -O -m equifan.cli`, where
asserts are stripped.
"""

import contextlib
import io
import random
import time
import traceback

from equifan.cli import main
from equifan.complexes import is_simplicial
from equifan.fanio import fan_from_complex, write_certificate, write_fan
from equifan.resolve import resolve_equivariant

from conftest import candidate_actions, corpus
from test_fanio_cli import run_module_cli

TIME_BOUND_S = 4.0
COMMANDS = ("validate", "barycentric", "star", "resolve", "verify", "orbits", "report")


def fuzz_bases():
    """(fan text, certificate text) of each corpus fan, without a group
    and with each group that acts on it; plain certificates where plain
    mode applies, canonical ones otherwise."""
    bases = []
    for _, cx in corpus():
        for elements in [None] + [el for _, el in candidate_actions(cx)]:
            fan = fan_from_complex(cx, elements or ())
            mode = "plain" if elements is None and is_simplicial(cx) and len(bases) % 2 else "canonical"
            cert = resolve_equivariant(cx, elements, mode=mode)
            bases.append((write_fan(fan), write_certificate(cert, fan)))
    return bases


def mutate(rng, text):
    """The text with one token nudged by -3..3 (most often, as that keeps
    most files parseable) or replaced, or one line deleted, duplicated,
    swapped with the next or cut short."""
    lines = text.splitlines()
    i = rng.randrange(len(lines))
    op = rng.choice(("nudge",) * 6 + ("replace", "delete", "duplicate", "swap", "cut"))
    tokens = lines[i].split()
    if op in ("nudge", "replace") and tokens:
        j = rng.randrange(len(tokens))
        if op == "nudge" and tokens[j].lstrip("-").isdigit():
            tokens[j] = str(int(tokens[j]) + rng.choice((-3, -2, -1, 1, 2, 3)))
        else:
            tokens[j] = rng.choice(("x", "-1", "0", "1", "2", "7", "1.5", "na", "true", "host", ":"))
        lines[i] = " ".join(tokens)
    elif op == "delete":
        del lines[i]
    elif op == "duplicate":
        lines.insert(i, lines[i])
    elif op == "swap" and i + 1 < len(lines):
        lines[i], lines[i + 1] = lines[i + 1], lines[i]
    else:
        lines[i] = " ".join(tokens[:-1])
    return "\n".join(lines) + "\n"


def fuzz_runs(count, seed):
    """`count` argument lists over mutated files: (command, fan text,
    certificate text, extra arguments).  Half mutate a certificate, which
    `verify` reads; the rest mutate a fan, which any command reads."""
    rng = random.Random(f"cli-fuzz:{seed}")
    bases = fuzz_bases()
    runs = []
    for k in range(count):
        fan, cert = bases[rng.randrange(len(bases))]
        if k % 2:
            runs.append(("verify", fan, mutate(rng, cert), ()))
            continue
        command = COMMANDS[k // 2 % len(COMMANDS)]
        fan = mutate(rng, fan)
        extra = ()
        if command == "star":
            rank = int(fan.split()[1]) if fan.split()[1].isdigit() else 2
            extra = ("--center=" + ",".join(str(rng.randint(-1, 3)) for _ in range(max(1, min(rank, 4)))),)
        elif command == "resolve":
            extra = ("--mode", rng.choice(("canonical", "plain")))
        runs.append((command, fan, cert, extra))
    return runs


def argv(tmp_path, command, fan, cert, extra):
    fan_path, cert_path, out_path = tmp_path / "in.fan", tmp_path / "in.cert", tmp_path / "out"
    fan_path.write_text(fan)
    cert_path.write_text(cert)
    if command == "verify":
        return ["verify", str(cert_path), str(fan_path)]
    out = ["-o", str(out_path)] if command in ("barycentric", "star", "resolve") else []
    return [command, str(fan_path), *extra, *out]


def test_mutated_inputs_exit_by_the_documented_codes(tmp_path):
    failures = []
    for run in fuzz_runs(300, 0):
        args = argv(tmp_path, *run)
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(args)
        except SystemExit as e:  # argparse refusing an argument
            code = e.code
        except Exception:
            code = traceback.format_exc()
        elapsed = time.perf_counter() - start
        if code not in (0, 1, 2) or elapsed > TIME_BOUND_S:
            failures.append((run, code, round(elapsed, 2)))
    assert failures == []


def test_mutated_inputs_exit_by_the_documented_codes_without_asserts(tmp_path):
    failures = []
    for run in fuzz_runs(30, 1):
        done = run_module_cli(*argv(tmp_path, *run), flags=("-O",))
        if done.returncode not in (0, 1, 2) or "Traceback" in done.stderr:
            failures.append((run, done.returncode, done.stderr[-500:]))
    assert failures == []
