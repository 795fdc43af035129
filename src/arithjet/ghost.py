"""The Witt ghost map and its inverse, over any ring that can scale by p.

For p-typical Witt components (a_0, ..., a_n) the ghost coordinates are

    w_i = a_0^(p^i) + p a_1^(p^(i-1)) + ... + p^i a_i,

and the inverse solves a_i = (w_i - sum_(j<i) p^j a_j^(p^(i-j))) / p^i
level by level.  Both take ``shift(x, k)``, which multiplies x by p^k;
a negative k divides by p^(-k), which the caller's ring must do exactly
(ExactPoly.exact_div over Z, a valuation shift over Q_p coefficients).
Everything else is the ring's own +, - and **.  This module imports
nothing, so the jet layer can use it without loading the Witt ring.
"""


def ghost_map(p: int, comps, shift) -> list:
    """[w_0, ..., w_n] of the components (a_0, ..., a_n)."""
    ghosts = []
    for i in range(len(comps)):
        terms = [shift(a ** (p ** (i - j)), j) for j, a in enumerate(comps[:i + 1])]
        ghosts.append(sum(terms[1:], terms[0]))
    return ghosts


def ghost_solve(p: int, ghosts, shift) -> list:
    """Components [a_0, ..., a_n] whose ghost coordinates are `ghosts`."""
    comps = []
    for i, g in enumerate(ghosts):
        acc = g
        for j, a in enumerate(comps):
            acc = acc - shift(a ** (p ** (i - j)), j)
        comps.append(shift(acc, -i))
    return comps
