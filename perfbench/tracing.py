"""Per-layer tracing of forms4d, installed from outside the library.

`Tracer.install()` replaces public functions with timing wrappers at every
binding the CLI reaches them through. The library binds names with
`from .exactla import snf`, so `forms4d.cli.snf` and `forms4d.fpgroup.snf`
are patched separately; module-qualified calls such as
`exactla.signature(...)` inside `quadform` go through the module attribute.
`uninstall()` restores every original.

Each wrapped call records a span: layer name, start, end, parent span and
operation id, kept in flat arrays and written out once at the end. Self time
is a span's duration minus the time of wrapped calls made inside it. Size
counts (witness bits, enumerated vectors, candidate maps) are taken from
arguments and results after the operation ends, outside every span.
"""

from __future__ import annotations

import functools
import json
import time
from array import array
from collections import Counter, defaultdict
from fractions import Fraction

import mathref as ref

# layer name -> the (module, attribute) bindings the CLI reaches it through
TIMED = {
    "exactla.snf": [("cli", "snf"), ("fpgroup", "snf"), ("exactla", "snf")],
    "exactla.signature": [("exactla", "signature")],
    "exactla.congruent_diagonalize": [("exactla", "congruent_diagonalize")],
    "exactla.determinant": [("exactla", "determinant")],
    "cyclotomic.trace_form_gram": [("cli", "trace_form_gram"), ("cyclotomic", "trace_form_gram")],
    "cyclotomic.cyc_mul": [("cyclotomic", "cyc_mul")],
    "cyclotomic.cyc_trace": [("cyclotomic", "cyc_trace")],
    "quadform.invariants": [("cli", "invariants"), ("quadform", "invariants")],
    "quadform.short_vectors": [("quadform", "short_vectors")],
    "quadform.is_diagonalizable_over_Z": [("quadform", "is_diagonalizable_over_Z")],
    "quadform.bilinear_value": [("quadform", "bilinear_value")],
    "quadform.from_witt": [("cli", "from_witt"), ("quadform", "from_witt")],
    "quadform.two_power_trace_form": [("cli", "two_power_trace_form")],
    "quadform.odd_prime_trace_form": [("cli", "odd_prime_trace_form")],
    "smooth4.analyze_intersection_form": [("cli", "analyze_intersection_form")],
    "groupring.abelian_group": [("cli", "abelian_group"), ("fpgroup", "abelian_group")],
    "groupring.frobenius_form": [("cli", "frobenius_form")],
    "groupring.wedderburn_decompose": [("cli", "wedderburn_decompose")],
    "fpgroup.aut_bruteforce": [("cli", "aut_bruteforce"), ("fpgroup", "aut_bruteforce")],
    "fpgroup.abelianize": [("cli", "abelianize"), ("fpgroup", "abelianize")],
    "fpgroup.galois_surrogate": [("cli", "galois_surrogate")],
}


def _bits(x) -> int:
    if isinstance(x, Fraction):
        return max(abs(x.numerator).bit_length(), x.denominator.bit_length())
    return abs(x).bit_length()


# Size hooks: (counters, maxima, args, result, exc) after the operation ends.
def _snf_sizes(counts, maxima, args, result, exc):
    if exc is None:
        bits = max(_bits(x) for m in (result.U, result.V) for x in m.entries)
        maxima["exactla.snf.max_witness_bits"] = max(maxima["exactla.snf.max_witness_bits"], bits)


def _diagonalize_sizes(counts, maxima, args, result, exc):
    if exc is None:
        bits = max(_bits(x) for x in result.D.diagonal)
        key = "exactla.congruent_diagonalize.max_entry_bits"
        maxima[key] = max(maxima[key], bits)


def _short_vector_sizes(counts, maxima, args, result, exc):
    if exc is None:
        counts["quadform.short_vectors.vectors"] += len(result)


def _analyze_verdicts(counts, maxima, args, result, exc):
    if exc is not None:
        if type(exc).__name__ == "NonUnimodularFormError":
            counts["smooth4.analyze_intersection_form.rejected_non_unimodular"] += 1
    elif result.definite and result.diagonalizable == "not_evaluated":
        counts["smooth4.analyze_intersection_form.not_evaluated"] += 1


def _group_sizes(counts, maxima, args, result, exc):
    if exc is None:
        key = "groupring.abelian_group.max_order"
        maxima[key] = max(maxima[key], result.order)


def _aut_sizes(counts, maxima, args, result, exc):
    # candidates enumerated; a call refused by a cap enumerates none
    if exc is None:
        counts["fpgroup.aut_bruteforce.candidates"] += ref.aut_candidates(
            args[0].abelian_invariants
        )
        counts["fpgroup.aut_bruteforce.automorphisms"] += result.torsion_aut_order


HOOKS = {
    "exactla.snf": _snf_sizes,
    "exactla.congruent_diagonalize": _diagonalize_sizes,
    "quadform.short_vectors": _short_vector_sizes,
    "smooth4.analyze_intersection_form": _analyze_verdicts,
    "groupring.abelian_group": _group_sizes,
    "fpgroup.aut_bruteforce": _aut_sizes,
}


class Tracer:
    """Spans and counters of one traced run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.stack: list[int] = []  # open span ids
        self.child_time: list[float] = []  # wrapped-call time inside each open span
        self.calls: Counter[str] = Counter()
        self.total_s: defaultdict[str, float] = defaultdict(float)
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self.maxima: Counter[str] = Counter()
        self.pending: list = []
        self.op_id = -1
        self.origin = time.perf_counter()
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------------------

    def wrap(self, name: str, fn):
        name_id = self.name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(self.span_name)
            self.span_name.append(name_id)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
            self.span_parent.append(self.stack[-1] if self.stack else -1)
            self.span_op.append(self.op_id)
            self.stack.append(span)
            self.child_time.append(0.0)
            result = exc = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:  # recorded for the size hooks, then re-raised
                exc = e
                raise
            finally:
                end = time.perf_counter()
                self.stack.pop()
                elapsed = end - start
                self_time = elapsed - self.child_time.pop()
                if self.child_time:
                    self.child_time[-1] += elapsed
                self.calls[name] += 1
                self.total_s[name] += elapsed
                self.self_s[name] += self_time
                self.span_start[span] = start - self.origin
                self.span_end[span] = end - self.origin
                if hook is not None:
                    self.pending.append((hook, args, result, exc))

        return traced

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self, package) -> None:
        """Wrap every binding in TIMED and count IntMatrix and element_order calls."""
        for name, bindings in TIMED.items():
            for module, attr in bindings:
                owner = getattr(package, module)
                self._patch(owner, attr, self.wrap(name, getattr(owner, attr)))

        counts = self.counts
        int_matrix = package.exactla.IntMatrix
        validate = int_matrix.__post_init__

        def counted_post_init(matrix):
            counts["exactla.IntMatrix.constructed"] += 1
            counts["exactla.IntMatrix.entries_validated"] += len(matrix.entries)
            return validate(matrix)

        self._patch(int_matrix, "__post_init__", counted_post_init)

        group = package.groupring.FiniteGroup
        element_order = group.element_order

        def counted_element_order(g, x):
            counts["groupring.FiniteGroup.element_order.calls"] += 1
            return element_order(g, x)

        self._patch(group, "element_order", counted_element_order)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- per operation ------------------------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id

    def end_op(self) -> None:
        for hook, args, result, exc in self.pending:
            hook(self.counts, self.maxima, args, result, exc)
        self.pending.clear()

    # -- results ------------------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name in self.names:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.total_s"] = self.total_s[name]
            out[f"{name}.self_s"] = self.self_s[name]
        out.update(self.counts)
        out.update(self.maxima)
        candidates = self.counts["fpgroup.aut_bruteforce.candidates"]
        out["fpgroup.aut_bruteforce.hit_ratio"] = (
            self.counts["fpgroup.aut_bruteforce.automorphisms"] / candidates if candidates else 0.0
        )
        return out

    def write_spans(self, path) -> None:
        doc = {
            "names": self.names,
            "columns": ["name", "start_s", "end_s", "parent", "op"],
            "name": self.span_name.tolist(),
            "start_s": self.span_start.tolist(),
            "end_s": self.span_end.tolist(),
            "parent": self.span_parent.tolist(),
            "op": self.span_op.tolist(),
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
