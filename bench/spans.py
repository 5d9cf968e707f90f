"""In-memory span tracing of galspec's public functions, from outside the package.

Tracer.install() replaces each traced function at every ``galspec.*`` module
binding of its name (``padic_shape`` as seen from ``cli``, ``grunwald`` and
``padic`` itself), so calls made inside the package are caught too.  Each
call records one span (name, start, end, parent, exception type).  Spans are
kept in flat arrays while the run lasts and aggregated or written out at the
end; nothing under ``src/`` is touched.
"""

import functools
import sys
import time
from array import array

# module -> public functions traced in it, in report order
TRACED = {
    "family": ("load_manifest", "branch_locus", "nondegenerate_check"),
    "poly": (
        "parse_poly", "discriminant_in", "resultant", "gcd_over_poly_coeffs",
        "squarefree_part", "specialize", "rational_roots", "newton_polygon",
    ),
    "ffact": ("degree_sequence", "factor_poly", "reduce_mod_p"),
    "padic": ("padic_shape",),
    "permgrp": ("generate", "ef_multiset", "fingerprint"),
    "beckmann": ("bad_primes", "is_bad_prime", "predict_inertia"),
    "grunwald": ("local_model", "search_s0", "search_t0", "verify", "run_search"),
    "cli": ("census", "identify"),
}

# setup-phase counts kept apart: the manifest load's share of poly work
SETUP_TRACED = ("poly.discriminant_in", "poly.resultant", "poly.gcd_over_poly_coeffs")

TRACED_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)


class Tracer:
    def __init__(self):
        self.names = list(TRACED_NAMES)
        self.errors = [""]  # exception type names; 0 means none
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.error = array("i")
        self._stack = []
        self._restore = []

    def __len__(self):
        return len(self.name)

    def _wrap(self, idx: int, fn):
        names, parents, starts, ends, errs = self.name, self.parent, self.start, self.end, self.error
        stack, errors, clock = self._stack, self.errors, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(names)
            names.append(idx)
            parents.append(stack[-1] if stack else -1)
            errs.append(0)
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                label = type(exc).__name__
                if label not in errors:
                    errors.append(label)
                errs[sid] = errors.index(label)
                raise
            finally:
                ends[sid] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        """Wrap every traced function at each galspec module binding."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sys.modules.items() if n == "galspec" or n.startswith("galspec.")]
        for idx, qual in enumerate(self.names):
            mod, fn = qual.split(".")
            original = getattr(sys.modules[f"galspec.{mod}"], fn)
            wrapper = self._wrap(idx, original)
            for m in modules:
                if getattr(m, fn, None) is original:
                    setattr(m, fn, wrapper)
                    self._restore.append((m, fn, original))

    def uninstall(self) -> None:
        for m, fn, original in reversed(self._restore):
            setattr(m, fn, original)
        self._restore.clear()

    def aggregate(self, ranges) -> dict:
        """Per-function calls and self time over span ranges (lo, hi, factor),
        each range's self times multiplied by its factor.

        A span's self time is its duration minus the durations of its direct
        child spans; a range must hold whole call trees.  Also counts the
        padic_shape spans with a newton_polygon child (the exact path) and
        the degree_sequence spans that raised NotSquarefree.
        """
        padic_idx = self.names.index("padic.padic_shape")
        newton_idx = self.names.index("poly.newton_polygon")
        seq_idx = self.names.index("ffact.degree_sequence")
        not_sqf_code = self.errors.index("NotSquarefree") if "NotSquarefree" in self.errors else -1
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        exact = set()
        not_sqf = 0
        for lo, hi, factor in ranges:
            own = [self.end[i] - self.start[i] for i in range(lo, hi)]
            for i in range(lo, hi):
                par = self.parent[i]
                if par >= lo:
                    own[par - lo] -= self.end[i] - self.start[i]
                    if self.name[i] == newton_idx and self.name[par] == padic_idx:
                        exact.add(par)
            for i in range(lo, hi):
                k = self.name[i]
                calls[k] += 1
                self_s[k] += own[i - lo] * factor
                not_sqf += k == seq_idx and self.error[i] == not_sqf_code
        return {
            "calls": dict(zip(self.names, calls)),
            "self_s": dict(zip(self.names, self_s)),
            "exact_shapes": len(exact),
            "not_squarefree": not_sqf,
        }

    def write_tsv(self, path) -> None:
        """One line per span: id, parent, name, start, end, exception."""
        t0 = self.start[0] if len(self) else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart_s\tend_s\texception\n")
            for i in range(len(self)):
                fh.write(
                    f"{i}\t{self.parent[i]}\t{self.names[self.name[i]]}\t"
                    f"{self.start[i] - t0:.9f}\t{self.end[i] - t0:.9f}\t"
                    f"{self.errors[self.error[i]]}\n"
                )
