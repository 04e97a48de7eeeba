"""Regenerate the frozen proof corpus of the prove_corpus workload.

    python3 bench/corpus.py [--seed 2103]

Draws pairs with deacp.gen the way acceptance criteria 5 and 6 do: a random
term and the same term after a few sound axiom rewrites, so every pair is
equal by construction. The abstraction-free pairs come from Random(seed), the
bool-conditional pairs (a hidden cluster of silent cycles, which needs fair
abstraction) from Random(seed + 1). The pairs are written as spec files under
bench/corpus/; timed runs read only those files, so a later change to
deacp.gen or deacp.axioms does not change the workload.
"""

from __future__ import annotations

import argparse
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from deacp import gen as G  # noqa: E402
from deacp.parser import parse_spec, render_term  # noqa: E402

SEED = 2103
ABSTRACTION_FREE = 90
BOOL_CONDITIONAL = 56

HEADER = """# Generated by bench/corpus.py --seed {seed}: {kind} pairs equal by construction.
# Regenerate with that command instead of editing.
domain -4..3
vars u, v
actions a, a/1, b, b/1, c
comm {{ a | b = c }}
"""


def draw(seed: int) -> dict:
    af_cfg = G.GenConfig(max_depth=2, allow_abstr=False)
    bc_cfg = G.GenConfig(max_depth=2, bool_cond_only=True)
    ctx = G.default_context(af_cfg)
    rng = random.Random(seed)
    af = [G.rewritten_pair(rng, af_cfg, ctx)[:2] for _ in range(ABSTRACTION_FREE)]
    rng = random.Random(seed + 1)
    bc = []
    for _ in range(BOOL_CONDITIONAL):
        base = G.bool_cond_hide_term(rng, bc_cfg, ctx, hidden="a")
        bc.append(G.rewritten_pair(rng, bc_cfg, ctx, base=base, pool=G.BOOL_COND_POOL)[:2])
    return {"abstraction_free": af, "bool_conditional": bc}, ctx


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=SEED)
    args = ap.parse_args(argv)
    corpora, ctx = draw(args.seed)
    os.makedirs(os.path.join(HERE, "corpus"), exist_ok=True)
    for kind, pairs in corpora.items():
        lines = [HEADER.format(seed=args.seed, kind=kind.replace("_", "-"))]
        for n, (left, right) in enumerate(pairs):
            lines.append(f"proc L{n} = {render_term(left)}\n")
            lines.append(f"proc R{n} = {render_term(right)}\n")
        text = "".join(lines)
        spec = parse_spec(text)
        if spec.context() != ctx or any(
            spec.procs[f"L{n}"] != left or spec.procs[f"R{n}"] != right
            for n, (left, right) in enumerate(pairs)
        ):
            raise SystemExit(f"{kind}: the written corpus does not parse back to the drawn terms")
        path = os.path.join(HERE, "corpus", f"{kind}.deacp")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {len(pairs)} pairs to {os.path.relpath(path)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
