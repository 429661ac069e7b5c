"""Span recorder that wraps equifan's public functions from outside the package.

`Tracer.install()` replaces each function named in TARGETS by a wrapper
that records a span (name, op id, parent span, start, end).  Every alias
bound by `from .x import f` in an `equifan.*` module namespace is rebound
too, as are the traced `Complex` methods, so calls between modules are
seen.  `Tracer.uninstall()` puts every original back.  Spans stay in
memory until `write()`.

Self time of a span is its duration minus the part of it covered by its
child spans; inclusive time of a function counts only its outermost
spans, so recursion is not counted twice.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from time import perf_counter

# (module, attribute path) of every traced function
TARGETS = {
    "lattice": (
        "smith_normal_form",
        "parallelepiped_points",
        "rational_nullspace",
        "solve_in_basis",
        "rank",
        "cone_index",
    ),
    "complexes": (
        "cone_dual",
        "is_subdivision",
        "validate_complex",
        "same_complex",
        "is_simplicial",
        "is_smooth",
        "Complex.faces",
        "Complex.minimal_cone_containing",
    ),
    "subdivide": ("star_subdivide", "barycentric_subdivision", "barycentric_edge_bijection"),
    "orderfun": (
        "search_centered_order_function",
        "centered_order_function",
        "verify_order_axioms",
        "compose_with_multiplier",
        "evaluate",
        "linearity_domains",
    ),
    "groups": ("generate_group", "verify_action", "group_action", "check_G_strict"),
    "resolve": (
        "resolve_equivariant",
        "select_centers",
        "certificate_flags",
        "direct_barycentric_order_function",
        "max_index",
        "total_index",
    ),
    "fanio": (
        "parse_fan",
        "fan_hash",
        "complex_hash",
        "write_certificate",
        "parse_certificate",
        "verify_certificate",
    ),
    "cli": ("main",),
}

SNF = "lattice.smith_normal_form"
POINTS = "lattice.parallelepiped_points"
CONE_DUAL = "complexes.cone_dual"
STAR = "subdivide.star_subdivide"
SEARCH = "orderfun.search_centered_order_function"
CANDIDATE = "orderfun.centered_order_function"
AXIOMS = "orderfun.verify_order_axioms"
COMPOSE = "orderfun.compose_with_multiplier"
CLI_MAIN = "cli.main"


def _matrix_key(m):
    return tuple(tuple(row) for row in m)


def _star_key(cx, center):
    return (cx.ambient_rank, cx.rays, cx.cones, tuple(center))


# argument keys for repeat_ratio: a call repeats when its key was seen in the same op
REPEAT_KEYS = {
    SNF: lambda args: _matrix_key(args[0]),
    CONE_DUAL: lambda args: (_matrix_key(args[0]), args[1]),
    STAR: lambda args: _star_key(args[0], args[1]),
}


class Tracer:
    """Records spans of the traced equifan functions while installed."""

    def __init__(self):
        # span: [name, op, parent index, start, end, outermost-of-its-name]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op = 0
        self._stack: list[int] = []
        self._active: Counter = Counter()
        self._seen: dict[str, set] = {}
        self.begin_op(0)
        self._patched: list[tuple] = []  # (owner, attribute, original)
        self._wrappers: dict[int, object] = {}  # id -> wrapper, kept alive so ids stay unique

    # -- ops -------------------------------------------------------------

    def begin_op(self, op: int):
        """Start a new op: later spans carry its id and repeat keys reset."""
        self.op = op
        self._seen = {name: set() for name in REPEAT_KEYS}

    # -- wrapping --------------------------------------------------------

    def _wrap(self, name: str, fn):
        spans, stack, active, counts = self.spans, self._stack, self._active, self.counts
        repeat_key = REPEAT_KEYS.get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            if repeat_key is not None:
                seen = tracer._seen[name]
                key = repeat_key(args)
                if key in seen:
                    counts[name + ".repeats"] += 1
                else:
                    seen.add(key)
            if name == CANDIDATE and active[SEARCH]:
                counts["orderfun.search.candidates"] += 1
            elif name == AXIOMS and active[COMPOSE]:
                counts["orderfun.compose.attempts"] += 1
            rec = [name, tracer.op, stack[-1] if stack else -1, 0.0, 0.0, not active[name]]
            stack.append(len(spans))
            spans.append(rec)
            active[name] += 1
            rec[3] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[4] = perf_counter()
                active[name] -= 1
                stack.pop()
            if name == POINTS:
                counts["lattice.parallelepiped_points.points"] += len(result)
            elif name == CLI_MAIN and result != 0:
                counts["cli.exit_nonzero"] += 1
            return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        self._wrappers[id(wrapper)] = wrapper
        return wrapper

    def _count_constructions(self, init):
        counts = self.counts

        def __init__(self_, *args, **kwargs):
            counts["complexes.Complex.constructed"] += 1
            init(self_, *args, **kwargs)

        __init__.__wrapped__ = init
        self._wrappers[id(__init__)] = __init__
        return __init__

    def install(self):
        """Wrap every target and rebind every alias of it in equifan's modules."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        import equifan.cli  # noqa: F401  (loads every traced module)
        import equifan.fanio  # noqa: F401

        namespaces = equifan_modules()
        complex_cls = sys.modules["equifan.complexes"].Complex
        for mod, attrs in TARGETS.items():
            module = sys.modules[f"equifan.{mod}"]
            for attr in attrs:
                name = f"{mod}.{attr}"
                if attr.startswith("Complex."):
                    method = attr.split(".", 1)[1]
                    original = complex_cls.__dict__[method]
                    self._patch(complex_cls, method, original, self._wrap(name, original))
                    continue
                original = getattr(module, attr)
                wrapper = self._wrap(name, original)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is original:
                            self._patch(ns, key, original, wrapper)
        init = complex_cls.__dict__["__init__"]
        self._patch(complex_cls, "__init__", init, self._count_constructions(init))

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def uninstall(self):
        """Restore every original binding, in reverse order of patching."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def leftover_wrappers(self) -> list[str]:
        """Names in equifan's namespaces still bound to one of this tracer's wrappers."""
        left = []
        complex_cls = sys.modules["equifan.complexes"].Complex
        for ns in equifan_modules() + [complex_cls]:
            for key, value in vars(ns).items():
                if id(value) in self._wrappers:
                    left.append(f"{getattr(ns, '__name__', ns)}.{key}")
        return left

    # -- output ------------------------------------------------------------

    def write(self, path: str):
        """Write the spans as JSON lines: name, op, parent, start, end."""
        with open(path, "w") as fh:
            for i, (name, op, parent, start, end, _) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "op": op, "parent": parent,
                                     "start": start, "end": end}) + "\n")


def equifan_modules():
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "equifan" or n.startswith("equifan."))]


def self_times(spans) -> list[float]:
    """Duration minus child coverage for every span (children may overlap)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for rec in spans:
        if rec[2] >= 0:
            children.setdefault(rec[2], []).append((rec[3], rec[4]))
    out = []
    for i, rec in enumerate(spans):
        start, end = rec[3], rec[4]
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def summarize(spans) -> dict:
    """Per-function calls, self time and inclusive time."""
    stats: dict[str, dict] = {}
    for rec, self_s in zip(spans, self_times(spans)):
        s = stats.setdefault(rec[0], {"calls": 0, "self_s": 0.0, "incl_s": 0.0})
        s["calls"] += 1
        s["self_s"] += self_s
        if rec[5]:
            s["incl_s"] += rec[4] - rec[3]
    return stats
