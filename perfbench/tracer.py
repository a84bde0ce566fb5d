"""Span recorder wrapped around ordist's layer boundaries.

Tracer.install() replaces, in the namespaces of the calling modules,
the public functions through which one ordist module calls the next
with wrappers that record a span (name, start, end, parent, operation).
The program itself is not edited.  Spans stay in memory and are written
as one JSON document by dump().  A target that no longer exists is
skipped, so its metrics read zero calls.

Sizes are recorded after the wrapped call returns, outside its span:
presentation generators and relations, and for each transform build
its cells and nonzero entries.
"""

from __future__ import annotations

import itertools
import json
import sys
import time
import weakref

# (span name, defining module, attribute, where calls are intercepted)
# "others": every ordist namespace except the defining module, i.e. the
# calls one module makes into the next; "all": also the defining module,
# for distribution functions that call each other; a tuple names the
# calling modules explicitly.
TARGETS = (
    ("quadfield.make_field", "ordist.quadfield", "make_field", "others"),
    ("rayclass.ray_class_group", "ordist.rayclass", "ray_class_group",
     "others"),
    ("rayclass.galois_over_h", "ordist.rayclass", "galois_over_h", "others"),
    ("groupring.alpha", "ordist.groupring", "alpha", "others"),
    ("groupring.trace_ideal_quotient", "ordist.groupring",
     "trace_ideal_quotient", "others"),
    ("cohomology.sweep_torsion_law", "ordist.cohomology",
     "sweep_torsion_law", "others"),
    ("distribution.build_presentation", "ordist.distribution",
     "build_presentation", "all"),
    ("distribution.iwasawa_matrix", "ordist.distribution", "iwasawa_matrix",
     "all"),
    ("distribution.level_torsion", "ordist.distribution", "level_torsion",
     "all"),
    ("distribution.torsion_bound", "ordist.distribution", "torsion_bound",
     "all"),
    ("distribution.torsex_certificate", "ordist.distribution",
     "torsex_certificate", "all"),
    ("distribution.search_torsex", "ordist.distribution", "search_torsex",
     "all"),
    ("zlinalg.cokernel", "ordist.zlinalg", "cokernel",
     ("ordist.distribution",)),
    ("zlinalg.rational_kernel", "ordist.zlinalg", "rational_kernel",
     ("ordist.distribution",)),
    ("zlinalg.modular_rank", "ordist.zlinalg", "modular_rank",
     ("ordist.distribution",)),
    ("zlinalg.row_saturation", "ordist.zlinalg", "row_saturation",
     ("ordist.distribution",)),
    ("zlinalg.subquotient_torsion", "ordist.zlinalg", "subquotient_torsion",
     ("ordist.distribution",)),
)
# methods of cli.Cache, wrapped on the class
METHODS = (
    ("cli.cache_load", "ordist.cli", "Cache", "load"),
    ("cli.cache_store", "ordist.cli", "Cache", "store"),
)
MAIN = "cli.main"
SPAN_NAMES = tuple(t[0] for t in TARGETS) + tuple(m[0] for m in METHODS) \
    + (MAIN,)


def _nonzero(mat) -> int:
    entries = getattr(mat, "entries", None)
    if entries is None:
        import numpy as np
        return int(np.count_nonzero(np.asarray(mat)))
    return sum(map(bool, itertools.chain.from_iterable(entries)))


class Tracer:
    """Spans and counters of one process."""

    def __init__(self, op: str | None = None):
        self.op = op
        self.spans: list[list] = []  # [name, start, end, parent, op]
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []
        self._built = weakref.WeakKeyDictionary()

    def count(self, key: str, n: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def wrap(self, name: str, fn, after=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            span = [name, clock(), None, stack[-1] if stack else None,
                    self.op]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # size recorders, run after the span has closed

    def _after_presentation(self, args, P) -> None:
        self.count("distribution.generators", getattr(P, "n_gens", 0))
        rel = getattr(P, "relations", None)
        self.count("distribution.relations", getattr(rel, "rows", 0))

    def _after_transform(self, args, F) -> None:
        P = args[0] if args else None
        try:
            if self._built.get(P) == id(F):
                return  # handed back the transform built earlier
            self._built[P] = id(F)
        except TypeError:
            pass  # not weak-referenceable: count every call as a build
        self.count("distribution.transform_builds")
        self.count("distribution.transform_cells",
                   getattr(F, "rows", 0) * getattr(F, "cols", 0))
        self.count("distribution.transform_nonzero", _nonzero(F))

    def _after_load(self, args, manifest) -> None:
        if args and getattr(args[0], "root", "") is None:
            self.count("cli.cache_bypassed")  # --no-cache
        elif manifest is not None:
            self.count("cli.cache_hits")

    def install(self) -> None:
        """Wrap every target present in the loaded ordist modules."""
        mods = {name: mod for name, mod in list(sys.modules.items())
                if mod is not None
                and (name == "ordist" or name.startswith("ordist."))}
        after = {"distribution.build_presentation": self._after_presentation,
                 "distribution.iwasawa_matrix": self._after_transform}
        for name, home, attr, where in TARGETS:
            fn = getattr(mods.get(home), attr, None)
            if fn is None:
                continue
            wrapped = self.wrap(name, fn, after.get(name))
            if where == "others":
                callers = [m for n, m in mods.items() if n != home]
            elif where == "all":
                callers = list(mods.values())
            else:
                callers = [mods[n] for n in where if n in mods]
            for mod in callers:
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        setattr(mod, key, wrapped)
        for name, home, cls_name, attr in METHODS:
            cls = getattr(mods.get(home), cls_name, None)
            fn = getattr(cls, attr, None)
            if fn is None:
                continue
            hook = self._after_load if name == "cli.cache_load" else None
            setattr(cls, attr, self.wrap(name, fn, hook))

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counters": self.counters}, fh)


def self_times(spans) -> list[float]:
    """Per span: its duration minus the durations of its direct children.

    Calls in one process are nested and sequential, so the children of
    a span never overlap and their sum is the part of the interval they
    cover.
    """
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] is not None:
            own[s[3]] -= s[2] - s[1]
    return own


def kernel_paths(spans) -> list[tuple[str, str]]:
    """(operation, path) for every level_torsion span.

    direct: rational_kernel without a rank certificate; certified: a
    rank certificate (modular_rank) or row_saturation without
    rational_kernel; fallback: the rank certificate failed and
    rational_kernel ran after it; reused: none of them ran, the torsion
    was already known.
    """
    below: dict[int, set] = {}
    for i, s in enumerate(spans):
        p = s[3]
        while p is not None:
            below.setdefault(p, set()).add(s[0])
            p = spans[p][3]
    out = []
    for i, s in enumerate(spans):
        if s[0] != "distribution.level_torsion":
            continue
        names = below.get(i, set())
        certificate = bool(names & {"zlinalg.modular_rank",
                                    "zlinalg.row_saturation"})
        if "zlinalg.rational_kernel" in names:
            path = "fallback" if certificate else "direct"
        else:
            path = "certified" if certificate else "reused"
        out.append((s[4], path))
    return out
