"""Call spans for the cipher_autopsy modules, recorded from outside the package.

``Tracer`` replaces every public function of the eight modules with a timing
wrapper at each module binding that refers to it: the defining module, every
``from .x import y`` copy in another module, and therefore every call made
through a module reference such as ``imagekit.load_pgm`` in ``cli``.  Leaving
the ``with`` block puts every original binding back.

Spans stay in memory.  ``finish_op`` folds the spans of one op into totals:
a span's self time is its duration minus the durations of its direct
children, and a layer's self time is the sum over its module's spans.  Work
counts are taken from arguments and results at the boundary where work
enters a layer (see ``COUNTERS``), so they repeat exactly for the same
inputs.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter

PACKAGE = "cipher_autopsy"
MODULES = ("imagekit", "algebra", "ecgroup", "ecchc", "dwc", "metrics", "attacks", "cli")


def _first_arg(args, kwargs):
    return args[0] if args else next(iter(kwargs.values()))


def _pgm_bytes(img) -> int:
    """Size of the binary PGM of ``img``, computed from its dimensions."""
    return len(f"P5\n{img.width} {img.height}\n255\n") + img.size


def _blocks_in_image(args, kwargs, result, exc):
    return _first_arg(args, kwargs).size // 4


def _hill_search(args, kwargs, result, exc):
    # brute_force_hill raises KeyNotFoundError (carrying its count) when no
    # key fits; it stops scanning at the second match.
    outcome = result if exc is None else exc
    status = getattr(getattr(outcome, "status", None), "value", None)
    return {
        "attacks.brute_force_hill.candidates_tested": outcome.candidates_tested,
        "attacks.hill_keys_matched": {"unique": 1, "ambiguous": 2}.get(status, 0),
    }


# Work counts, taken when a call enters the named function from outside its
# module (so ecchc_decrypt delegating to ecchc_encrypt counts once).  Each
# entry maps (args, kwargs, result, exception) to {count name: amount}.
COUNTERS = {
    "imagekit.load_pgm": lambda a, k, r, e: {"imagekit.pgm_bytes": _pgm_bytes(r)},
    "imagekit.save_pgm": lambda a, k, r, e: {"imagekit.pgm_bytes": _pgm_bytes(_first_arg(a, k))},
    "ecchc.ecchc_encrypt": lambda *c: {"ecchc.blocks": _blocks_in_image(*c)},
    "ecchc.ecchc_decrypt": lambda *c: {"ecchc.blocks": _blocks_in_image(*c)},
    "dwc.dwc_encrypt": lambda *c: {"dwc.blocks": _blocks_in_image(*c)},
    "dwc.dwc_decrypt": lambda *c: {"dwc.blocks": _blocks_in_image(*c)},
    "dwc.core_transform_blocks": lambda a, k, r, e: {"dwc.blocks": len(_first_arg(a, k))},
    "dwc.core_inverse_blocks": lambda a, k, r, e: {"dwc.blocks": len(_first_arg(a, k))},
    "metrics.evaluate_pair": lambda a, k, r, e: {"metrics.pixels": _first_arg(a, k).size},
    "attacks.brute_force_hill": _hill_search,
    "attacks.kpa_recover_hill_key": lambda a, k, r, e: {"attacks.kpa_samples": len(_first_arg(a, k))},
    "attacks.brute_force_dwc": lambda a, k, r, e: {"attacks.dwc_keys_scored": len(r)},
}


class Tracer:
    """Install with ``with tracer:``; call ``finish_op`` after each op."""

    def __init__(self):
        self.modules = [importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES]
        self.names: set[str] = set()  # every traced function, as module.function
        self._saved: list[tuple[object, str, object]] = []
        self._spans: list[list] = []  # [name, module, start_ns, end_ns, parent index]
        self._stack: list[int] = []
        self._open = Counter()  # open spans per function name and per module
        self.ops = 0
        self.self_ns = Counter()  # per function
        self.layer_self_ns = Counter()  # per module
        self.calls = Counter()
        self.counts = Counter()
        self.top_level_ns = 0

    # -- installing ---------------------------------------------------------

    def __enter__(self):
        wrappers = {}
        for module in self.modules:
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if not obj.__module__.startswith(PACKAGE + "."):
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self._wrap(obj)
                self._saved.append((module, attr, obj))
                setattr(module, attr, wrappers[obj])
        return self

    def __exit__(self, *exc_info):
        for module, attr, obj in reversed(self._saved):
            setattr(module, attr, obj)
        self._saved.clear()

    def _wrap(self, fn):
        name = f"{fn.__module__.rsplit('.', 1)[1]}.{fn.__name__}"
        self.names.add(name)
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span, outermost = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self._exit(span, name, outermost and counter, args, kwargs, None, exc)
                raise
            self._exit(span, name, outermost and counter, args, kwargs, result, None)
            return result

        return traced

    # -- recording ----------------------------------------------------------

    def _enter(self, name):
        module = name.split(".", 1)[0]
        outermost = not self._open[module]
        # brute_force_hill expands one key per full-image verification, and
        # one more for the key it returns.
        if name == "ecchc.expand_key" and self._open["attacks.brute_force_hill"]:
            self.counts["attacks.hill_verifications"] += 1
        self._open[name] += 1
        self._open[module] += 1
        parent = self._stack[-1] if self._stack else None
        self._spans.append([name, module, time.perf_counter_ns(), 0, parent])
        self._stack.append(len(self._spans) - 1)
        return len(self._spans) - 1, outermost

    def _exit(self, span, name, counter, args, kwargs, result, exc):
        record = self._spans[span]
        record[3] = time.perf_counter_ns()
        self._stack.pop()
        self._open[name] -= 1
        self._open[record[1]] -= 1
        if counter:
            self.counts.update(counter(args, kwargs, result, exc))

    def span_self_ns(self) -> list[tuple[str, int]]:
        """(name, self time) of every span of the current op, in call order."""
        child_ns = [0] * len(self._spans)
        for _, _, start, end, parent in self._spans:
            if parent is not None:
                child_ns[parent] += end - start
        return [(s[0], s[3] - s[2] - child_ns[i]) for i, s in enumerate(self._spans)]

    def finish_op(self) -> None:
        """Fold the current op's spans into the totals and drop them."""
        if self._stack:
            raise RuntimeError("finish_op called with spans still open")
        for (name, self_ns), span in zip(self.span_self_ns(), self._spans):
            self.self_ns[name] += self_ns
            self.layer_self_ns[span[1]] += self_ns
            self.calls[name] += 1
            if span[4] is None:
                self.top_level_ns += span[3] - span[2]
        self._spans.clear()
        self.ops += 1
