"""Per-layer tracing from outside the program.

Each layer is a group of public functions.  ``Tracer.install`` replaces
every binding of those functions -- in every ``power_forge`` module that
holds one, since ``from .ntheory import integer_nth_root`` copies the
function into the importing module -- with a wrapper that times the call
and counts it.  Modules are looked up in ``sys.modules``:
``power_forge.construct`` names the re-exported function, not the
submodule.  ``Tracer.remove`` puts the originals back.

A layer's self time is its wall time minus the time of traced calls
beneath it.  Calls are counted once per entry into a layer, so a
recursive decomposer or a nested JSON encoder counts as one call.
"""

from __future__ import annotations

import sys
from collections import Counter
from time import perf_counter

# layer -> (module, attribute names); "Class.method" patches a class attribute.
LAYERS = {
    "cli": ("power_forge.cli", ("main",)),
    "construct": ("power_forge.construct", ("construct",)),
    "construct.k": ("power_forge.construct", ("compute_k",)),
    "construct.deltas": ("power_forge.construct", ("find_deltas",)),
    "construct.offset": ("power_forge.construct", ("select_offset_exponent",)),
    "construct.build": ("power_forge.construct", ("build_g_h_f",)),
    "oracles.gamma_scan": ("power_forge.oracles", ("scan_gamma_minus_pow2",)),
    "oracles.search": ("power_forge.oracles",
                       ("search_lebesgue", "search_catalan", "search_fermat_quartic")),
    "verify.scan": ("power_forge.verify", ("verify_construction", "verify_polynomial")),
    "verify.trace": ("power_forge.verify", ("ensure_trace", "trace_quantities")),
    "powers.decompose": ("power_forge.powers",
                         ("decompose_integer_power", "decompose_rational_power")),
    "ntheory.nth_root": ("power_forge.ntheory", ("integer_nth_root",)),
    "ntheory.factor": ("power_forge.ntheory", ("factor_integer",)),
    "poly.mul": ("power_forge.poly", ("IntPoly.__mul__", "IntPoly.__rmul__")),
    "poly.eval": ("power_forge.poly", ("IntPoly.__call__", "IntPoly.eval_pair")),
    "poly.rational_roots": ("power_forge.poly", ("rational_roots",)),
    "jsonio.encode": ("power_forge.jsonio",
                      ("dumps", "poly_to_json", "decomposition_to_json",
                       "artifacts_to_json", "report_to_json", "trace_to_json",
                       "solutions_to_json", "power_hits_to_json",
                       "power_query_to_json", "error_to_json")),
    "jsonio.decode": ("power_forge.jsonio",
                      ("poly_from_json", "decomposition_from_json", "artifacts_from_json")),
}

# layers whose self time is reported, and those whose call count is
SELF_TIMED = ("cli", "construct.k", "construct.deltas", "construct.offset",
              "construct.build", "oracles.gamma_scan", "oracles.search",
              "verify.scan", "verify.trace", "powers.decompose", "ntheory.nth_root",
              "ntheory.factor", "poly.mul", "poly.eval", "poly.rational_roots",
              "jsonio.encode", "jsonio.decode")
COUNTED = ("construct", "oracles.gamma_scan", "verify.trace", "powers.decompose",
           "ntheory.nth_root", "ntheory.factor", "poly.mul", "poly.eval")
RATIOS = ("ntheory.nth_root.exact_ratio", "powers.roots_per_decompose",
          "powers.decompose.hit_ratio", "trace.overhead")


def layer_unit(name: str) -> str:
    return "s" if name.endswith("_s") else "ratio" if name in RATIOS else "count"


class Tracer:
    """Wraps the layers' functions; collects counts and self times per pass."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []
        self._stack: list[float] = []  # child time accumulated by each open span
        self._depth: Counter = Counter()
        self.reset()

    def reset(self) -> None:
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()

    # -- patching --------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "power_forge" or name.startswith("power_forge."))]
        for layer, (module_name, attrs) in LAYERS.items():
            home = sys.modules[module_name]
            for attr in attrs:
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(home, cls_name)
                    original = cls.__dict__[meth]
                    self._patch(cls, meth, original, self._wrap(layer, original))
                    continue
                original = getattr(home, attr)
                wrapper = self._wrap(layer, original)
                for module in modules:
                    for name, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, name, original, wrapper)

    def remove(self) -> None:
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()

    def _patch(self, owner, name: str, original, wrapper) -> None:
        self._saved.append((owner, name, original))
        setattr(owner, name, wrapper)

    # -- spans -----------------------------------------------------------

    def _wrap(self, layer: str, fn):
        stack, depth = self._stack, self._depth

        def traced(*args, **kwargs):
            outermost = depth[layer] == 0
            if outermost:
                self.calls[layer] += 1
            depth[layer] += 1
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                self.self_s[layer] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
                depth[layer] -= 1
            if outermost:
                self._observe(layer, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _observe(self, layer: str, result) -> None:
        counts = self.counts
        if layer == "ntheory.nth_root":
            counts["nth_root.exact"] += result[1]
            if self._depth["powers.decompose"]:
                counts["nth_root.in_decompose"] += 1
        elif layer == "powers.decompose":
            counts["decompose.hits"] += result is not None
        elif layer == "verify.scan":
            counts["verify.points"] += result.points_scanned
        elif layer == "construct":
            counts["f_coeff_bits"] += sum(c.bit_length() for c in result.f.coeffs)
        elif layer == "jsonio.encode" and isinstance(result, str):
            counts["jsonio.bytes"] += len(result)

    # -- metrics ---------------------------------------------------------

    def pass_metrics(self) -> dict:
        """This pass's counts (exact) and self times (seconds)."""
        calls, counts = self.calls, self.counts

        def ratio(a, b):
            return a / b if b else 0.0

        out = {f"{layer}.calls": calls[layer] for layer in COUNTED}
        out.update({f"{layer}.self_s": self.self_s[layer] for layer in SELF_TIMED})
        out["ntheory.nth_root.exact_ratio"] = ratio(counts["nth_root.exact"],
                                                    calls["ntheory.nth_root"])
        out["powers.roots_per_decompose"] = ratio(counts["nth_root.in_decompose"],
                                                  calls["powers.decompose"])
        out["powers.decompose.hit_ratio"] = ratio(counts["decompose.hits"],
                                                  calls["powers.decompose"])
        out["verify.points"] = counts["verify.points"]
        out["construct.f_coeff_bits"] = counts["f_coeff_bits"]
        out["jsonio.bytes"] = counts["jsonio.bytes"]
        return out
