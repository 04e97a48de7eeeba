"""Signature refinement by silent-closure walks: an oracle for
deacp.bisim._blocks, which computes the same signatures bottom-up over the
strongly connected components of the silent steps.

Here every state walks its own silent closure under each map: once before
the first round for rooted branching bisimilarity, whose closure lists never
change, and again in every round for the condition-labelled equivalence,
whose silent paths must stay in the state's block. The block numbering is the
engine's, so the two must return identical lists.
"""


def blocks(u, related_paths: bool) -> list:
    """Block of each state of the union u (a deacp.bisim._Union) in the
    coarsest stable partition.

    A state's signature is its block, the (map, action class, target block)
    of every step it can take after silent steps under that map to a state
    of its own block, and the maps under which such a state terminates. A
    silent step within the block is inert and left out. With related_paths
    the silent steps must also stay in the block. Blocks split until no
    signature splits one.
    """
    moves = u.moves

    def observations(s, keep=None):
        """(state, map, class, target) of every move of every state that a
        silent path from s under a map reaches through states kept by keep."""
        return [(v, m, c, t) for m in moves[s] for v in u.reach(s, m, keep)
                for c, t in moves[v].get(m, ())]

    fixed = None if related_paths else [observations(s) for s in range(len(moves))]
    block = [0] * len(moves)
    count = 1
    while True:
        ids: dict = {}
        fresh = []
        for s, b in enumerate(block):
            obs = fixed[s] if fixed else observations(s, lambda t: block[t] == b)
            sig = frozenset((m, c, block[t]) for v, m, c, t in obs
                            if block[v] == b and (c or block[t] != b))
            fresh.append(ids.setdefault((b, sig), len(ids)))
        if len(ids) == count:
            return fresh
        block, count = fresh, len(ids)
