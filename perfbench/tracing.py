"""Spans and counters around the public functions of each package module.

The modules of ``almostdirect`` are the layers.  :class:`Tracer` replaces
each function in :data:`TARGETS` by a wrapper in every package module that
holds it by name (``cli.build_presentation`` as well as
``adp.build_presentation``), and each method on its class, so that no call
escapes.  A wrapper records a span (name, start, end, parent span, job) and
the counters of its layer; spans stay in memory until the run writes them
out.  Self time is a span's duration minus that of its child spans.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter


def _rows(counts, args, result):
    counts["linalg.span_rank.rows"] += len(args[0])
    counts["linalg.span_rank.rank"] += result


def _letters(counts, args, result):
    counts["fox.letters"] += len(args[0])


def _pair_letters(counts, args, result):
    counts["adp.pair_letters"] += sum(len(u) + len(v) for u, v in result)


def _relations(counts, args, result):
    counts["adp.relations"] += len(result)


# (module, attribute or Class.method, span name, counter hook)
TARGETS = (
    ("cli", "main", "cli.main", None),
    ("cli", "parse_spec", "cli.parse_spec", None),
    ("cli", "format_spec", "cli.format_spec", None),
    ("adp", "build_presentation", "adp.build_presentation", _relations),
    ("words", "commutator_decompose", "words.commutator_decompose", _pair_letters),
    ("fox", "abel_gradient", "fox.abel_gradient", _letters),
    ("homology", "verify_chain_map", "homology.verify_chain_map", None),
    ("homology", "h2_matrix", "homology.h2_matrix", None),
    ("homology", "kernel_basis", "homology.kernel_basis", None),
    ("homology", "H2Matrix.has_full_row_rank", "homology.has_full_row_rank", None),
    ("linalg", "span_rank", "linalg.span_rank", _rows),
    ("exterior", "CohomologyRing.__init__", "exterior.CohomologyRing", None),
    ("exterior", "CohomologyRing.groebner_verify", "exterior.groebner_verify", None),
    ("exterior", "CohomologyRing.normal_form", "exterior.normal_form", None),
    ("exterior", "CohomologyRing.dimension", "exterior.dimension", None),
    ("invariants", "zcl_witness", "invariants.zcl_witness", None),
    ("invariants", "lcs_ranks", "invariants.lcs", None),
    ("invariants", "lcs_identity_holds", "invariants.lcs", None),
    ("invariants", "tc_certificate", "invariants.tc_certificate", None),
)

# called hundreds of thousands of times per round from the tensor products
# of invariants; a span each would double the time of invariants_large, so
# these are only counted, in a counter named "<name>.calls"
COUNTED = (("exterior", "CohomologyRing.reduce_mono", "exterior.reduce_mono"),)

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name, _ in TARGETS))
COUNTERS = (
    "linalg.span_rank.rows",
    "linalg.span_rank.rank",
    "fox.letters",
    "adp.pair_letters",
    "adp.relations",
) + tuple(name + ".calls" for _, _, name in COUNTED)


PACKAGE = "almostdirect"


class Tracer:
    def __init__(self):
        self.spans = []  # (id, parent id, round, job, name, start, end)
        self.missing = []
        self.round = 0
        self.job = None
        self._stack = []  # [span id, child seconds] of the open spans
        self._patches = []
        self._new_round()

    def _new_round(self):
        self.self_s = Counter()
        self.calls = Counter()
        self.counts = Counter()

    def _wrap(self, fn, name, hook):
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = len(self.spans)
            parent = stack[-1][0] if stack else None
            self.spans.append(None)  # reserve the id; filled in on exit
            frame = [span_id, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                self.self_s[name] += duration - frame[1]
                self.calls[name] += 1
                self.spans[span_id] = (
                    span_id, parent, self.round, self.job, name, start, end
                )
            if hook is not None:
                hook(self.counts, args, result)
            return result

        return traced

    def _count(self, fn, name):
        key = name + ".calls"

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self):
        """Patch every target; targets the package no longer has are listed
        in ``missing`` and skipped."""
        for module_name, attr, name, hook in TARGETS:
            self._patch(module_name, attr, lambda fn: self._wrap(fn, name, hook))
        for module_name, attr, name in COUNTED:
            self._patch(module_name, attr, lambda fn: self._count(fn, name))

    def _patch(self, module_name, attr, make_wrapper):
        home = sys.modules.get("%s.%s" % (PACKAGE, module_name))
        owner_name, _, method = attr.rpartition(".")
        owner = getattr(home, owner_name, None) if owner_name else home
        fn = getattr(owner, method, None) if owner else None
        if fn is None:
            self.missing.append("%s.%s" % (module_name, attr))
            return
        wrapper = make_wrapper(fn)
        if owner_name:
            sites = [(owner, method)]
        else:
            sites = [
                (module, key)
                for module_key, module in list(sys.modules.items())
                if module is not None
                and (module_key == PACKAGE or module_key.startswith(PACKAGE + "."))
                for key, value in list(vars(module).items())
                if value is fn
            ]
        for site, key in sites:
            self._patches.append((site, key, fn))
            setattr(site, key, wrapper)

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches = []

    def end_round(self):
        """The per-layer numbers of the round just traced; starts a new one."""
        out = {}
        for name in SPAN_NAMES:
            out[name + ".s"] = self.self_s[name]
            out[name + ".calls"] = self.calls[name]
        for name in COUNTERS:
            out[name] = self.counts[name]
        rows = self.counts["linalg.span_rank.rows"]
        out["linalg.useful_ratio"] = (
            self.counts["linalg.span_rank.rank"] / rows if rows else 0.0
        )
        self.round += 1
        self._new_round()
        return out

    def write_spans(self, path, origin):
        """One JSON list per span, times in seconds from ``origin``."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(
                '["id", "parent", "round", "job", "name", "start_s", "end_s"]\n'
            )
            for span in self.spans:
                if span is None:  # the job was stopped inside this span
                    continue
                span_id, parent, rnd, job, name, start, end = span
                fh.write(
                    json.dumps(
                        [
                            span_id,
                            parent,
                            rnd,
                            job,
                            name,
                            round(start - origin, 6),
                            round(end - origin, 6),
                        ]
                    )
                    + "\n"
                )
