"""arithjet: an exact p-adic toolkit for Witt vectors, arithmetic jet spaces
J^nG (n <= 2) and delta characters of G_a, G_m and elliptic curves over
Z_p, and the delta isocrystal of G_m and elliptic curves."""
