"""Known answers, written down by hand or computed here in closed form.

Nothing in this file imports cind: a verdict is checked against these
values, never against another run of the code under test.
"""

from __future__ import annotations

# goldens printed by `cind gallery NAME`, from the paper's worked examples
GALLERY_GOLDENS = {
    "nat_as_lists": [],
    "truth_monoid": ["classes {alg:ta, mon:F} | {alg:fa, mon:T} | {alg:other}"],
    "pulling_back_lists": [],
    "tree_pruning": [
        "prune #b (5 (1 #b #b) #b) -> #b",
        "prune (0 #b #b) (5 (1 #b #b) #b) -> (5 #b #b)",
        "prune (0 (0 #b #b) #b) (0 (0 #b #b) #b) -> (0 (0 #b #b) #b)",
        "loop-prune (5 (1 #b #b) (7 #b #b)) -> (5 (1 #b #b) (7 #b #b))",
        "push [0,1,2] (5 (1 #b #b) (7 #b #b)) -> (5 (2 #b #b) (8 #b #b))",
    ],
    "intro_examples": ["perfect 2 -> (0 (0 #b #b) (0 #b #b))"],
}

# the claims each gallery setup reports, in order; every one must hold
GALLERY_CLAIMS = {
    "nat_as_lists": ["law", "law", "law", "c-initial",
                     "respects-composition[embed]"],
    "truth_monoid": ["pushout-classes", "law", "law", "law", "adjunction[bang]",
                     "respects-composition[push]"],
    "pulling_back_lists": ["law", "law", "law", "law", "restriction", "c-initial",
                           "respects-composition[pull]"],
    "tree_pruning": ["law", "law", "law", "c-initial", "respects-composition[push]"],
    "intro_examples": ["law", "perfect-embedding", "pushforward-is-depth-fuel",
                       "c-initial", "preserves-c-initial"],
}

# the checks of the five fixture scripts under bench/inputs; every one holds
SCRIPT_CLAIMS = {
    "intro_examples": ["c-initial", "c-initial"],
    "nat_as_lists": ["c-initial"],
    "pulling_back_lists": ["solve", "law", "unique", "c-initial"],
    "tree_pruning": ["c-initial", "c-initial"],
    "truth_monoid": ["solve", "law", "count"],
}


def free_cell_count(n_target: int, n_states: int, n_free: int) -> int:
    """Lawful measurings out of a constant-signature algebra whose labels are
    interpreted injectively, plus ``n_free`` uninterpreted elements: the
    interpreted cells are forced, every free cell takes any target value."""
    return n_target ** (n_states * n_free)


def bounded_terms(n_labels: int, arity: int, depth: int) -> int:
    """|T_d|, the terms of depth <= d: t_0 = 1, t_d = 1 + m * t_(d-1)^a."""
    t = 1
    for _ in range(depth):
        t = 1 + n_labels * t ** arity
    return t


def perfect_tree_nodes(arity: int, depth: int) -> int:
    """Nodes of the perfect tree of the given depth and arity."""
    return sum(arity ** i for i in range(depth))


def chain_kept(chains) -> list:
    """States kept by the greatest lifting restriction of a machine made of
    chains.  ``chains`` lists (states, lifts): a chain whose last state does
    not lift loses every state, since each one points at the next."""
    return sorted(s for states, lifts in chains if lifts for s in states)


def pushout_classes(elements, labels, new_labels, interpret, relabel) -> set:
    """Classes of carrier + new labels under alpha(x) ~ h(x), by a plain
    graph search; items are ("alg", a) and ("mon", x')."""
    adjacent = {("alg", a): set() for a in elements}
    adjacent.update({("mon", y): set() for y in new_labels})
    for x in labels:
        a, y = ("alg", interpret[x]), ("mon", relabel[x])
        adjacent[a].add(y)
        adjacent[y].add(a)
    classes, seen = set(), set()
    for item in adjacent:
        if item in seen:
            continue
        component, todo = set(), [item]
        while todo:
            cur = todo.pop()
            if cur not in component:
                component.add(cur)
                todo.extend(adjacent[cur])
        seen |= component
        classes.add(frozenset(component))
    return classes
