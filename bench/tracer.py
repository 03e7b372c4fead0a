"""Spans around mwlab's public functions, for the traced benchmark run.

Each wrapper records a span (name, start, end, parent span, query id) in
flat arrays kept in memory; the spans are written out once, at the end.
A wrapper is installed in every namespace its callers look the name up
in: numth.factor is a global inside numth, while subgroup_closure_mod,
map_chunks and split_chunks are imported by name into other modules.
Installing fails loudly when a name has moved, and the benchmark asserts
that each wrapper is hit on the workload meant to exercise it, so a
refactor breaks the trace visibly instead of silently zeroing a layer.
"""

from __future__ import annotations

import json
import time
from array import array


class TraceError(RuntimeError):
    pass


# metric name -> (defining namespace, attribute, caller namespaces).
# Namespaces are module names under mwlab, or Module.Class for methods.
# Metric names must start with a letter, so mwlab._parallel is "parallel".
LAYERS = {
    "numth.factor": ("numth", "factor", ("numth",)),
    "numth.is_prime": ("numth", "is_prime", ("numth",)),
    "numth.multiplicative_order": ("numth", "multiplicative_order", ("numth",)),
    "numth.primes_in": ("numth", "primes_in", ("numth",)),
    "numth.bsgs_dlog": ("numth", "bsgs_dlog", ("numth",)),
    "numth.crt": ("numth", "crt", ("numth",)),
    "numth.integer_kernel": ("numth", "integer_kernel", ("numth",)),
    "mwgroup.EllipticGroup.group_order_mod": ("mwgroup.EllipticGroup", "group_order_mod", ("mwgroup.EllipticGroup",)),
    "mwgroup.EllipticGroup.order_mod": ("mwgroup.EllipticGroup", "order_mod", ("mwgroup.EllipticGroup",)),
    "mwgroup.EllipticGroup.dlog_mod": ("mwgroup.EllipticGroup", "dlog_mod", ("mwgroup.EllipticGroup",)),
    "mwgroup.EllipticGroup.good_prime": ("mwgroup.EllipticGroup", "good_prime", ("mwgroup.EllipticGroup",)),
    "mwgroup.MultiplicativeGroup.order_mod": ("mwgroup.MultiplicativeGroup", "order_mod", ("mwgroup.MultiplicativeGroup",)),
    "mwgroup.MultiplicativeGroup.good_prime": ("mwgroup.MultiplicativeGroup", "good_prime", ("mwgroup.MultiplicativeGroup",)),
    "mwgroup.subgroup_closure_mod": ("mwgroup", "subgroup_closure_mod", ("dependence",)),
    "dependence.member_mod": ("dependence", "member_mod", ("dependence",)),
    "dependence.detect_dependence": ("dependence", "detect_dependence", ("dependence",)),
    "dependence.exact_membership_multiplicative": ("dependence", "exact_membership_multiplicative", ("dependence",)),
    "dependence.recover_exponent": ("dependence", "recover_exponent", ("dependence",)),
    "support.scan_erdos_union": ("support", "scan_erdos_union", ("support",)),
    "support.scan_corrales_schoof": ("support", "scan_corrales_schoof", ("support",)),
    "support.verify_witness": ("support", "verify_witness", ("support", "dependence")),
    "primesearch.find_pattern_primes": ("primesearch", "find_pattern_primes", ("primesearch",)),
    "primesearch.pattern_density": ("primesearch", "pattern_density", ("primesearch",)),
    "primesearch.replay_step1": ("primesearch", "replay_step1", ("primesearch",)),
    # mwgroup imports these too, for torsion_order_stability, which no CLI
    # command reaches; its wrappers are installed but never asserted.
    "parallel.map_chunks": ("_parallel", "map_chunks", ("support", "dependence", "primesearch", "mwgroup")),
    "parallel.split_chunks": ("_parallel", "split_chunks", ("support", "dependence", "primesearch", "mwgroup")),
    "reports.merge_scan_results": ("reports", "merge_scan_results", ("support", "dependence", "mwgroup")),
    "cli.parse_args": ("cli", "parse_args", ("cli",)),
    "cli.run": ("cli", "run", ("cli",)),
    "cli.render": ("cli", "render", ("cli",)),
}
DISPATCH = ("parallel.map_chunks", "parallel.split_chunks")

# Named sets whose inclusive time per query is compared with the profile
# recorded in ROADMAP.md; "scan" is the per-prime loop the profile refers to.
PROFILE_SETS = {
    "point_count": ("mwgroup.EllipticGroup.group_order_mod",),
    "closure": ("mwgroup.subgroup_closure_mod",),
    "factor": ("numth.factor", "numth.is_prime"),
    "scan": ("parallel.map_chunks",),
}


def _resolve(mwlab_modules: dict, namespace: str):
    module, _, cls = namespace.partition(".")
    obj = mwlab_modules[module]
    return getattr(obj, cls) if cls else obj


class Tracer:
    def __init__(self):
        self.sites: list[tuple[str, str]] = []  # (metric, "namespace:attr")
        self.start = array("d")
        self.end = array("d")
        self.site = array("i")
        self.parent = array("i")
        self.query = array("i")
        self.stack: list[int] = []
        self.query_id = -1
        self.extras: dict[str, float] = {}

    def install(self, mwlab_modules: dict, metrics) -> None:
        """Wrap each metric's function in every caller namespace."""
        for metric in metrics:
            home, attr, callers = LAYERS[metric]
            original = getattr(_resolve(mwlab_modules, home), attr, None)
            if original is None:
                raise TraceError(f"mwlab.{home} has no {attr}; update bench/tracer.py")
            for ns in callers:
                target = _resolve(mwlab_modules, ns)
                if target.__dict__.get(attr) is not original:
                    raise TraceError(
                        f"mwlab.{ns}.{attr} is not mwlab.{home}.{attr}; the trace would "
                        f"miss its callers, update bench/tracer.py"
                    )
                setattr(target, attr, self._wrap(metric, f"{ns}:{attr}", original))

    def _wrap(self, metric: str, site_key: str, fn):
        site_id = len(self.sites)
        self.sites.append((metric, site_key))
        observe = _OBSERVERS.get(metric)
        start, end, site, parent, query, stack = (
            self.start, self.end, self.site, self.parent, self.query, self.stack
        )
        extras = self.extras
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            i = len(start)
            site.append(site_id)
            parent.append(stack[-1] if stack else -1)
            query.append(tracer.query_id)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if observe is not None:
                observe(extras, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- results -----------------------------------------------------------

    def summary(self) -> dict:
        """Per-metric calls and self time, per-site calls, extras, and the
        inclusive time of each PROFILE_SETS entry per query id."""
        n = len(self.start)
        dur = array("d", (self.end[i] - self.start[i] for i in range(n)))
        child = array("d", bytes(8 * n))
        parent = self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += dur[i]
        metrics: dict[str, dict] = {}
        site_calls = [0] * len(self.sites)
        site_self = [0.0] * len(self.sites)
        site = self.site
        for i in range(n):
            s = site[i]
            site_calls[s] += 1
            site_self[s] += dur[i] - child[i]
        for (metric, _), calls, self_s in zip(self.sites, site_calls, site_self):
            m = metrics.setdefault(metric, {"calls": 0, "self_s": 0.0})
            m["calls"] += calls
            m["self_s"] += self_s
        site_metric = [self.sites[s][0] for s in range(len(self.sites))]
        profile: dict[str, dict[int, float]] = {k: {} for k in PROFILE_SETS}
        for name, members in PROFILE_SETS.items():
            member_sites = {s for s, m in enumerate(site_metric) if m in members}
            per_query = profile[name]
            for i in range(n):
                if site[i] not in member_sites:
                    continue
                p = parent[i]
                while p >= 0 and site[p] not in member_sites:
                    p = parent[p]
                if p < 0:  # outermost span of the set
                    q = self.query[i]
                    per_query[q] = per_query.get(q, 0.0) + dur[i]
        return {
            "metrics": metrics,
            "sites": {key: calls for (_, key), calls in zip(self.sites, site_calls)},
            "extras": dict(self.extras),
            "profile": {k: {str(q): t for q, t in v.items()} for k, v in profile.items()},
            "spans": n,
        }

    def write_spans(self, path: str) -> None:
        """One JSON header line naming the sites, then the raw arrays."""
        header = {
            "sites": [key for _, key in self.sites],
            "count": len(self.start),
            "arrays": ["start:d", "end:d", "site:i", "parent:i", "query:i"],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.start, self.end, self.site, self.parent, self.query):
                arr.tofile(fh)


def _count_true(name):
    def observe(extras, args, result):
        extras[name + ".true"] = extras.get(name + ".true", 0) + bool(result)
    return observe


def _add_len(key):
    def observe(extras, args, result):
        extras[key] = extras.get(key, 0) + len(result)
    return observe


def _observe_map_chunks(extras, args, results):
    """Chunks that return goods and bads tell how many primes they examined;
    those up to the first chunk with a witness are useful, the rest were
    scanned past a witness that the merge then keeps."""
    extras["parallel.map_chunks.tasks"] = extras.get("parallel.map_chunks.tasks", 0) + len(args[1])
    examined = useful = 0
    stopped = False
    for res in results:
        if not isinstance(res, dict) or "goods" not in res or "bads" not in res:
            continue
        seen = res["goods"] + len(res["bads"])
        examined += seen
        if not stopped:
            useful += seen
            stopped = res.get("witness") is not None
    extras["parallel.map_chunks.primes_examined"] = extras.get("parallel.map_chunks.primes_examined", 0) + examined
    extras["parallel.map_chunks.primes_useful"] = extras.get("parallel.map_chunks.primes_useful", 0) + useful


_OBSERVERS = {
    "mwgroup.EllipticGroup.good_prime": _count_true("mwgroup.EllipticGroup.good_prime"),
    "mwgroup.MultiplicativeGroup.good_prime": _count_true("mwgroup.MultiplicativeGroup.good_prime"),
    "dependence.member_mod": _count_true("dependence.member_mod"),
    "mwgroup.subgroup_closure_mod": _add_len("mwgroup.subgroup_closure_mod.points_out"),
    "numth.primes_in": _add_len("numth.primes_in.primes_out"),
    "parallel.map_chunks": _observe_map_chunks,
}
