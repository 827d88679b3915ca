"""Span tracing of latstab's public layer entry points, installed from outside.

The tracer replaces each entry point by a wrapper at every import site in the
loaded latstab modules (for example `latstab.audit.distance_dp` as well as
`latstab.metrics.distance_dp`), so calls between layers are seen without any
change to the program.  Spans stay in memory as
(job, name, parent_index, start, end, attrs) and the child process hands them
to the harness when it ends.
"""

from __future__ import annotations

import functools
import sys
import time

# (module, attribute, span name); a span name's prefix before "." is its layer
ENTRY_POINTS = (
    ("cli", "main", "cli.main"),
    ("audit", "audit_family", "audit.audit_family"),
    ("audit", "audit_instance", "audit.audit_instance"),
    ("groups", "get_structure", "groups.get_structure"),
    ("gf2", "rref", "gf2.rref"),
    ("metrics", "distance_dp", "metrics.distance_dp"),
    ("metrics", "distance_bruteforce", "metrics.distance_bruteforce"),
    ("metrics", "linear_distance", "metrics.linear_distance"),
    ("metrics", "barrier_walk_bound", "metrics.barrier_walk_bound"),
    ("barrier", "barrier_exact", "barrier.barrier_exact"),
    ("transforms", "clean_stabilizer", "transforms.clean_stabilizer"),
    ("transforms", "strip_sweep", "transforms.strip_sweep"),
    ("transforms", "minimal_block_search", "transforms.minimal_block_search"),
    ("transforms", "compress_qubits", "transforms.compress_qubits"),
    ("codes", "parse_code", "codes.parse_code"),
)
ZOO_BUILDERS = (
    "make_repetition_1d",
    "make_toric_2d",
    "make_generalized_toric",
    "make_surface_2d",
    "make_bacon_shor_2d",
    "make_heisenberg_gauge",
    "make_steane_chain",
)


class Tracer:
    def __init__(self):
        self.spans = []
        self.job = ""
        self._stack = []
        self._restricted = {}  # id -> code built by compress_qubits, not yet structured

    def wrap(self, name, fn, on_result=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [self.job, name, stack[-1] if stack else -1, time.perf_counter(), 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                span[5] = {"error": type(e).__name__}
                raise
            finally:
                span[4] = time.perf_counter()
                stack.pop()
            if on_result is not None:
                span[5] = on_result(args, result)
            return result

        return traced

    # counters read from the result objects at the layer boundary

    def _on_compress(self, args, code):
        self._restricted[id(code)] = code
        return None

    def _on_structure(self, args, st):
        code = self._restricted.pop(id(args[0]), None)
        if code is not None and code is args[0]:
            return {"restricted_k": st.k}
        return None

    def install(self):
        """Wrap every entry point of the latstab modules imported so far."""
        import latstab.codes

        hooks = {
            "metrics.distance_dp": lambda a, r: {"front_peak": r.stats.get("front_peak", 0)},
            "metrics.distance_bruteforce": lambda a, r: {"examined": r.stats.get("examined", 0)},
            "barrier.barrier_exact": lambda a, r: {
                "nodes": r.stats.get("nodes", 0), "expanded": r.stats.get("expanded", 0)},
            "audit.audit_instance": lambda a, r: {"skipped": len(r.skipped)},
            "transforms.compress_qubits": self._on_compress,
            "groups.get_structure": self._on_structure,
        }
        targets = list(ENTRY_POINTS) + [("zoo", attr, "zoo.build") for attr in ZOO_BUILDERS]
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "latstab" or key.startswith("latstab."))]
        for mod, attr, name in targets:
            module = sys.modules.get(f"latstab.{mod}")
            if module is None:
                continue
            orig = getattr(module, attr)
            wrapped = self.wrap(name, orig, hooks.get(name))
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, key, wrapped)
        spec = latstab.codes.CodeSpec
        spec.validate_locality = self.wrap("codes.validate_locality", spec.validate_locality)


LAYERS = ("cli", "audit", "groups", "gf2", "metrics", "barrier", "transforms", "codes", "zoo")

# per-layer metric -> span name whose inclusive time it reports
TIMED = {
    "cli.cmd_s": "cli.main",
    "audit.instance_s": "audit.audit_instance",
    "groups.get_structure_s": "groups.get_structure",
    "gf2.rref_s": "gf2.rref",
    "transforms.min_block_s": "transforms.minimal_block_search",
    "transforms.strip_sweep_s": "transforms.strip_sweep",
    "transforms.clean_s": "transforms.clean_stabilizer",
    "metrics.distance_dp_s": "metrics.distance_dp",
    "metrics.distance_bruteforce_s": "metrics.distance_bruteforce",
    "metrics.linear_distance_s": "metrics.linear_distance",
    "metrics.walk_bound_s": "metrics.barrier_walk_bound",
    "barrier.barrier_exact_s": "barrier.barrier_exact",
    "zoo.build_s": "zoo.build",
    "codes.parse_s": "codes.parse_code",
    "codes.validate_locality_s": "codes.validate_locality",
}


def layer_metrics(processes, pass_wall):
    """Per-layer numbers of one traced pass.

    `processes` holds each process's (spans, import_s).  Times are inclusive
    per entry point (a call nested in a call of the same name counts once);
    self time is a span's duration minus that of its direct children, summed
    by layer; `self.outside_s` is the pass time under no span at all.
    """
    incl, calls, attrs, errors = {}, {}, {}, {}
    self_s = {layer: 0.0 for layer in LAYERS}
    top = 0.0
    import_s = 0.0
    for spans, proc_import_s in processes:
        import_s += proc_import_s
        child_time = [0.0] * len(spans)
        for job, name, parent, start, end, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
            else:
                top += end - start
        for i, (job, name, parent, start, end, extra) in enumerate(spans):
            dur = end - start
            self_s[name.split(".")[0]] += dur - child_time[i]
            calls[name] = calls.get(name, 0) + 1
            p = parent
            while p >= 0 and spans[p][1] != name:
                p = spans[p][2]
            if p < 0:
                incl[name] = incl.get(name, 0.0) + dur
            for key, value in (extra or {}).items():
                if key == "error":
                    errors.setdefault(name, []).append(value)
                else:
                    attrs.setdefault(key, []).append(value)

    def total(key):
        return sum(attrs.get(key, []))

    restricted = calls.get("transforms.compress_qubits", 0)
    hits = sum(1 for k in attrs.get("restricted_k", []) if k > 0)
    nodes = total("nodes")
    out = {metric: incl.get(name, 0.0) for metric, name in TIMED.items()}
    out.update({
        "cli.import_s": import_s,
        "audit.skipped": total("skipped"),
        "groups.get_structure_calls": calls.get("groups.get_structure", 0),
        "gf2.rref_calls": calls.get("gf2.rref", 0),
        "transforms.restricted_codes": restricted,
        "transforms.block_hit_ratio": hits / restricted if restricted else 0.0,
        "metrics.dp_front_peak": max(attrs.get("front_peak", [0])),
        "metrics.bf_examined": total("examined"),
        "barrier.nodes": nodes,
        "barrier.expanded": total("expanded"),
        "barrier.expanded_ratio": total("expanded") / nodes if nodes else 0.0,
        "barrier.capacity_errors": errors.get("barrier.barrier_exact", []).count(
            "CapacityError"),
    })
    for layer in LAYERS:
        out[f"self.{layer}_s"] = self_s[layer]
    out["self.outside_s"] = pass_wall - top
    return out
