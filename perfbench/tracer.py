"""Per-layer tracing from outside the library.

Each traced function is replaced, under every name any ``chebring`` module
binds it to, by a wrapper that records a span: its name, its parent span and
its duration.  Spans are aggregated in memory per (parent, name) edge; the
self time of a span is its duration minus the durations of its traced
children.  Nothing inside ``src/`` changes.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter_ns

# span name -> the functions it covers, as (module, attribute) of their
# definition.  crypto.wire is one span for both directions of the codec.
SPANS = {
    "modarith._ladder_tu": [("modarith", "_ladder_tu")],
    "modarith.cheb_t": [("modarith", "cheb_t")],
    "modarith.jacobi": [("modarith", "jacobi")],
    "primes.is_prime": [("primes", "is_prime")],
    "primes.primes_in": [("primes", "primes_in")],
    "primes.prime_factors": [("primes", "prime_factors")],
    "criteria.wieferich_search": [("criteria", "wieferich_search")],
    "criteria.pseudoprime_search": [("criteria", "pseudoprime_search")],
    "criteria.strong_profile": [("criteria", "strong_profile")],
    "structure.partition": [("structure", "partition")],
    "structure.omega_order": [("structure", "omega_order")],
    "expsum.zeta_powers": [("expsum", "zeta_powers")],
    "expsum.weil_sum": [("expsum", "weil_sum")],
    "expsum.partition_sums": [("expsum", "partition_sums")],
    "aks.chebyshev_poly_mod": [("aks", "chebyshev_poly_mod")],
    "aks.shifted_congruence_check": [("aks", "shifted_congruence_check")],
    "aks.prime_iff_power_check": [("aks", "prime_iff_power_check")],
    "crypto.dh_keygen": [("crypto", "dh_keygen")],
    "crypto.dh_finish": [("crypto", "dh_finish")],
    "crypto.wire": [("crypto", "encode_fields"), ("crypto", "decode_fields")],
}


class Tracer:
    """Aggregated spans: (parent, name) -> [calls, total_ns, self_ns]."""

    def __init__(self) -> None:
        self.edges: dict[tuple[str | None, str], list[int]] = {}
        self._stack: list[list] = []  # open spans: [name, ns spent in traced children]
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        stack, edges = self._stack, self.edges

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0]
            stack.append(frame)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter_ns() - t0
                stack.pop()
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += dt
                rec = edges.setdefault((parent[0] if parent else None, name), [0, 0, 0])
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[1]

        return traced

    def install(self, package) -> None:
        """Wrap every function of SPANS wherever a module of the package binds it."""
        modules = [m for key, m in sys.modules.items() if key == package.__name__ or key.startswith(package.__name__ + ".")]
        for name, targets in SPANS.items():
            for mod_name, attr in targets:
                original = getattr(getattr(package, mod_name), attr)
                wrapper = self._wrap(name, original)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patches.append((module, key, original))
                            setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patches):
            setattr(module, key, original)
        self._patches.clear()

    def totals(self) -> dict[str, tuple[int, int]]:
        """span name -> (calls, self_ns), summed over parents."""
        out: dict[str, tuple[int, int]] = {name: (0, 0) for name in SPANS}
        for (_, name), (calls, _, self_ns) in self.edges.items():
            c, s = out[name]
            out[name] = (c + calls, s + self_ns)
        return out

    def edge_rows(self) -> list[dict]:
        return [
            {"parent": parent, "name": name, "calls": calls, "total_ms": total / 1e6, "self_ms": self_ns / 1e6}
            for (parent, name), (calls, total, self_ns) in sorted(self.edges.items(), key=lambda kv: (str(kv[0][0]), kv[0][1]))
        ]
