"""Small-scope exhaustive check of the prover: every closed term of at most
five nodes over a small signature, grouped into rooted branching classes by
one refinement, and each class's first member proved equal to every other
member. Every proof replays, and every refusal is a contingent condition on
a hidden cycle.

    PYTHONPATH=src python tests/test_small_scope.py 6

runs the same check on the terms of at most six nodes, and prints its
counts; it exits 1 when a pair is refused.
"""

import functools
import sys

import pytest

from deacp import parser as P
from deacp import terms as T
from deacp.bisim import decide_rb, rooted_branching_classes
from deacp.data_algebra import subterms
from deacp.errors import UnsupportedFragmentError
from deacp.linear import prove_equal, replay_certificate
from deacp.sos_sigma import build_lts

SPEC = P.parse_spec("domain 0..1\nvars u\nactions a, b, c\ncomm { a | b = c }\n")
LEAVES = tuple(P.parse_process(text, SPEC) for text in ("a", "b", "tau", "delta", "epsilon"))
_HIDE = P.parse_process("hide{a}(a)", SPEC).patterns
_GUARD = P.parse_condition("u = 0", SPEC)
UNARY = (lambda x: T.Abstr(_HIDE, x), lambda x: T.Guard(_GUARD, x))
BINARY = (T.Alt, T.Seq, T.Par)


def terms_up_to(size: int) -> list:
    """Every term of at most size nodes, smallest first: a leaf is one node,
    and an operator one more than its operands."""
    by_size = {1: list(LEAVES)}
    for n in range(2, size + 1):
        by_size[n] = [op(x) for op in UNARY for x in by_size[n - 1]] + [
            op(x, y) for op in BINARY for k in range(1, n - 1)
            for x in by_size[k] for y in by_size[n - 1 - k]]
    return [t for n in range(1, size + 1) for t in by_size[n]]


def guard_beneath_hide(t) -> bool:
    return any(isinstance(u, T.Abstr) and any(isinstance(v, T.Guard) for v in subterms(u.body))
               for u in subterms(t, T.PROCESS_LEAVES))


@functools.lru_cache(maxsize=None)
def _classes(size: int) -> tuple:
    """The terms of at most size nodes, grouped by rooted branching class in
    the order of their first members."""
    ctx = SPEC.context()
    terms = terms_up_to(size)
    ltss = [build_lts(t, ctx, domain=("u",)) for t in terms]
    classes: dict = {}
    for t, key in zip(terms, rooted_branching_classes(ltss, ctx)):
        classes.setdefault(key, []).append(t)
    return ctx, len(terms), tuple(map(tuple, classes.values()))


def test_every_small_term_counts():
    _, count, classes = _classes(5)
    assert (count, len(classes)) == (4730, 230)
    assert len(terms_up_to(4)) == 600


def prove_classes(size: int) -> tuple:
    """Each class's first member proved equal to every other member: every
    certificate replays, and the ends of every LIN step are equivalent.
    Returns the counts of proved pairs, of those with a guard beneath
    `hide`, and of refused pairs, each refusal a conditional silent cycle."""
    ctx, _, classes = _classes(size)
    proved = guarded = refused = 0
    for first, *others in classes:
        for other in others:
            try:
                result = prove_equal(first, other, ctx)
            except UnsupportedFragmentError as exc:
                assert "a silent cycle has a hidden step" in str(exc), (first, other)
                refused += 1
                continue
            assert result.equal, (first, other)
            assert replay_certificate(result.certificate, ctx) == (True, []), (first, other)
            for step in result.certificate.steps:
                if step.rule == "LIN":
                    assert decide_rb(step.before, step.after, ctx).equivalent, step
            proved += 1
            guarded += guard_beneath_hide(first) or guard_beneath_hide(other)
    return proved, guarded, refused


def test_every_equivalent_small_pair_proves():
    assert prove_classes(5) == (4500, 454, 0)


@pytest.mark.parametrize("text, beneath", [
    ("hide{a}([u = 0] -> a)", True), ("[u = 0] -> hide{a}(a)", False),
    ("hide{a}(a) . ([u = 0] -> b)", False), ("a || hide{a}(tau . ([u = 0] -> b))", True)])
def test_guard_beneath_hide(text, beneath):
    assert guard_beneath_hide(P.parse_process(text, SPEC)) is beneath


if __name__ == "__main__":
    size = int(sys.argv[1]) if len(sys.argv) > 1 else 6
    _, count, classes = _classes(size)
    proved, guarded, refused = prove_classes(size)
    print(f"size {size}: {count} terms, {len(classes)} classes; {proved} pairs proved,"
          f" {guarded} of them with a guard beneath hide; {refused} refused")
    sys.exit(1 if refused else 0)
