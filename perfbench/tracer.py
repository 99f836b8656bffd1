"""Spans around every call into katzexp's layer modules, from outside the
package.

Modules copy functions into their own namespace (`from .series import
qs_mul`), so wrapping `katzexp.series.qs_mul` alone would miss most calls.
install() builds one wrapper per public function of each layer module and
rebinds every katzexp module attribute that *is* that function, the
re-exports in katzexp/__init__ included. Calls made through such a name are
recorded as spans; self time is a span's duration minus its children's.
"""

from __future__ import annotations

import functools
import sys
import time
import types

LAYERS = ("series", "classical", "katz", "family", "hecke", "recurrence", "reports", "cli")
# counters that keep a maximum; the others are sums
MAX_COUNTERS = ("series.max_coeff_bits", "classical.bernoulli.max_k", "recurrence.chain_terms")
# functions whose calls update a counter (Tracer._after)
COUNTED = ("series.qs_mul", "classical.bernoulli", "recurrence.newton_chain")


def _coef_stats(a, b, result):
    """Exact nonzero coefficient pairs (i + j < N) qs_mul multiplies, and the
    largest numerator or denominator bit length among inputs and output."""
    ac, bc = a.coeffs, b.coeffs
    N = min(len(ac), len(bc))
    below = [0] * (N + 1)  # below[k]: nonzero b_j with j < k
    for j in range(N):
        below[j + 1] = below[j] + (bc[j] != 0)
    products = sum(below[N - i] for i in range(N) if ac[i] != 0)
    bits = 0
    for coeffs in (ac, bc, result.coeffs):
        for c in coeffs:
            if c:
                bits = max(bits, c.numerator.bit_length(), c.denominator.bit_length())
    return products, bits


class Tracer:
    """Records spans (id, parent id, request id, name, start, end, self
    seconds) in memory, plus a few counters measured at the call sites."""

    def __init__(self):
        self.spans = []
        self.request = None
        self.counters = {
            "series.qs_mul.coef_products": 0,
            "series.max_coeff_bits": 0,
            "classical.bernoulli.max_k": 0,
            "recurrence.chain_terms": 0,
        }
        self._stack = []  # [span id, seconds covered by children]
        self._active = {}  # name -> open spans of that name (for recursion)

    def _after(self, name, args, result):
        c = self.counters
        if name == "series.qs_mul":
            products, bits = _coef_stats(args[0], args[1], result)
            c["series.qs_mul.coef_products"] += products
            c["series.max_coeff_bits"] = max(c["series.max_coeff_bits"], bits)
        elif name == "classical.bernoulli":
            c["classical.bernoulli.max_k"] = max(c["classical.bernoulli.max_k"], args[0])
        elif name == "recurrence.newton_chain":
            c["recurrence.chain_terms"] = max(c["recurrence.chain_terms"], len(result[1][-1].terms))

    def _wrap(self, name, fn):
        spans, stack, active, clock = self.spans, self._stack, self._active, time.perf_counter
        counted = name in COUNTED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1][0] if stack else None
            frame = [sid, 0.0]
            spans.append(None)
            stack.append(frame)
            active[name] = active.get(name, 0) + 1
            t0 = clock()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                t1 = clock()
                stack.pop()
                outermost = active[name] == 1
                active[name] -= 1
                spans[sid] = (sid, parent, self.request, name, t0, t1, t1 - t0 - frame[1], outermost)
                hook = 0.0
                if ok and counted:
                    self._after(name, args, result)
                    hook = clock() - t1
                # counter work is charged to no span's self time
                if stack:
                    stack[-1][1] += t1 - t0 + hook
            return result

        return traced

    def install(self, package="katzexp"):
        """Rebind every module attribute that is an original layer function."""
        mods = [m for n, m in list(sys.modules.items()) if n == package or n.startswith(package + ".")]
        wrappers = {}
        for mod in mods:
            layer = mod.__name__.rpartition(".")[2]
            if layer not in LAYERS:
                continue
            for attr, obj in vars(mod).items():
                if isinstance(obj, types.FunctionType) and not attr.startswith("_") and obj.__module__ == mod.__name__:
                    wrappers[id(obj)] = (obj, self._wrap(layer + "." + attr, obj))
        for mod in mods:
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])


def aggregate(spans):
    """Per span name: calls, summed self seconds, and inclusive seconds of
    the outermost activations (recursion is not counted twice)."""
    out = {}
    for _sid, _parent, _req, name, t0, t1, self_s, outermost in spans:
        row = out.setdefault(name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += self_s
        if outermost:
            row[2] += t1 - t0
    return {k: {"calls": c, "self_s": s, "incl_s": i} for k, (c, s, i) in out.items()}
