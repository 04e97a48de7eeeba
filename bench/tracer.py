"""Spans and counters around the public functions of deacp's layers.

The tracer wraps each function under every name a deacp module binds it to
(`bisim.build_lts`, `security.build_lts`, `linear.build_lts`, ... are the same
function imported into different modules), so a call is seen whichever module
makes it. A span is [name, CPU start, CPU end, parent span, operation id];
spans stay in memory and are written once, when the round ends.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

# Each entry: (module, attribute, span name, counter update or None).
# A counter update receives (counts, args, result).


def _lts_counts(prefix):
    def count(counts, args, result):
        counts[f"{prefix}.states"] += len(result.states)
        counts[f"{prefix}.transitions"] += result.num_transitions
        if prefix == "sos_sigma":
            counts["sos_sigma.build_lts.calls"] += 1
            counts["sos_sigma.maps"] += len(result.maps)
    return count


def _expanded(counts, args, result):
    counts["sos_cond.expanded_transitions"] += result.num_transitions


def _pairs(prefix):
    def count(counts, args, result):
        counts[f"{prefix}.calls"] += 1
        counts[f"{prefix}.initial_pairs"] += len(args[0].states) * len(args[1].states)
        if prefix == "bisim.rb":
            counts["bisim.rb.related_pairs"] += len(result.relation)
    return count


def _dnii(counts, args, result):
    counts["security.pairs_checked"] += result.pairs_checked


def _tokens(counts, args, result):
    counts["parser.tokens"] += len(result)


def _proof(counts, args, result):
    if result.certificate is not None:
        steps = result.certificate.steps
        counts["linear.cert_steps"] += len(steps)
        counts["linear.cfar_steps"] += sum(1 for s in steps if s.rule == "CFAR")


LAYER_FUNCTIONS = (
    ("parser", "parse_spec", "parser", None),
    ("parser", "parse_process", "parser", None),
    ("parser", "tokenize", None, _tokens),
    ("sos_sigma", "build_lts", "sos_sigma.build_lts", _lts_counts("sos_sigma")),
    ("sos_sigma", "SigmaLts.to_json_dict", "sos_sigma.to_json", None),
    ("sos_cond", "build_cond_lts", "sos_cond.build_cond_lts", _lts_counts("sos_cond")),
    ("sos_cond", "expand_to_sigma", "sos_cond.expand_to_sigma", _expanded),
    ("bisim", "rooted_branching_bisim", "bisim.rb", _pairs("bisim.rb")),
    ("bisim", "rooted_ab_bisim", "bisim.rab", _pairs("bisim.rab")),
    ("bisim", "verify_branching_bisimulation", "bisim.verify", None),
    ("security", "check_dnii", "security.check_dnii", _dnii),
    ("linear", "prove_equal", "linear.prove_equal", _proof),
    ("linear", "linearize", "linear.linearize", None),
    ("linear", "normalize_bool_conditional", "linear.linearize", None),
    ("linear", "replay_certificate", "linear.replay", None),
    ("axioms", "recognize_axiom", "axioms.recognize", None),
)

# The per-layer metrics, in the order BENCHMARK.json lists them.
SELF_TIMES = ("parser", "sos_sigma.build_lts", "sos_sigma.to_json", "sos_cond.build_cond_lts",
              "sos_cond.expand_to_sigma", "bisim.rb", "bisim.rab", "bisim.verify",
              "security.check_dnii", "linear.prove_equal", "linear.linearize",
              "linear.replay", "axioms.recognize")
COUNTERS = ("parser.tokens", "sos_sigma.build_lts.calls", "sos_sigma.states",
            "sos_sigma.transitions", "sos_sigma.maps", "sos_cond.states",
            "sos_cond.transitions", "sos_cond.expanded_transitions", "bisim.rb.calls",
            "bisim.rb.initial_pairs", "bisim.rb.related_pairs", "bisim.rab.calls",
            "bisim.rab.initial_pairs", "security.pairs_checked", "linear.cert_steps",
            "linear.cfar_steps")

# Which layer each span belongs to, for the share table.
LAYER_OF = {name: name.split(".")[0] for name in SELF_TIMES}


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = defaultdict(int)
        self.op = None

    def wrap(self, span_name, fn, count):
        spans, stack, counts, clock = self.spans, self.stack, self.counts, time.process_time

        def traced(*args, **kwargs):
            if span_name is None:
                result = fn(*args, **kwargs)
            else:
                span = [span_name, clock(), 0.0, stack[-1] if stack else -1, self.op]
                stack.append(len(spans))
                spans.append(span)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    span[2] = clock()
                    stack.pop()
            if count is not None:
                count(counts, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Replace every binding of each layer function in the loaded deacp modules."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "deacp" or n.startswith("deacp."))]
        for module_name, attr, span_name, count in LAYER_FUNCTIONS:
            owner = sys.modules[f"deacp.{module_name}"]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, method, self.wrap(span_name, getattr(cls, method), count))
                continue
            original = getattr(owner, attr)
            wrapper = self.wrap(span_name, original, count)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)

    def open_op(self, op_id):
        """A root span for one operation: its self time is work outside every layer."""
        self.op = op_id
        span = ["op", time.process_time(), 0.0, -1, op_id]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close_op(self, span):
        span[2] = time.process_time()
        self.stack.pop()
        self.op = None

    def self_times(self) -> dict:
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals = defaultdict(float)
        for (name, start, end, _, _), child in zip(self.spans, covered):
            totals[name] += (end - start) - child
        return dict(totals)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "cpu_start", "cpu_end", "parent", "op"],
                       "spans": self.spans}, handle)
