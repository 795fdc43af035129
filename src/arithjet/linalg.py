"""Linear algebra over Z/p^K: kernel lattices, Smith exponents, small solves.

Everything here works with plain Python ints (entries are residues mod
p^K) except ``solve_padic``, which eliminates over PadicRational rows for
honest per-entry precision in the tiny systems the character module
solves.

The central object is the kernel lattice {u in Z_p^n : B u = 0 mod p^m}
for an integer matrix B known mod p^K (K >= m).  It always contains
p^m Z_p^n; its Smith exponents against Z_p^n separate genuine solutions
(small exponent) from budget-forced ones (exponent near m).
"""

from .padic import PadicRational, vp
from .errors import ArithJetError, PrecisionExhausted

_INF = float("inf")


def _vp_mod(x: int, p: int, K: int):
    x %= p ** K
    if x == 0:
        return None  # valuation >= K
    return vp(x, p)


def _shear(cols, piv, pv, s, entries, p: int, K: int) -> None:
    """Clear one row against its pivot, in place: for each (j, v) in
    entries, v column j's entry in the row (divisible by p^s), subtract
    from column j f times the pivot column cols[piv], whose entry is
    pv = unit * p^s, with f = (v / p^s) / unit mod p^(K - s); entries stay
    mod p^K.  Column operations keep the lattice."""
    mod, ps, mod_s = p ** K, p ** s, p ** (K - s)
    pu_inv = pow(pv // ps, -1, mod_s)
    bp = cols[piv]
    for j, v in entries:
        f = v // ps * pu_inv % mod_s
        if f and j != piv:
            cols[j] = [(a - f * b) % mod for a, b in zip(cols[j], bp)]


def kernel_lattice(rows, ncols: int, p: int, m: int, K: int):
    """Basis of {u : row . u = 0 mod p^m for every row}, entries mod p^K.

    Processes constraints incrementally: maintain a column basis B of the
    current solution lattice (starting at the identity); for each row,
    shear the basis against the minimum-valuation image value and scale
    the pivot column by the p-power still needed.  Returns the basis as a
    list of ncols columns (ints), lattice = B * Z^n.
    """
    if K < m:
        raise ArithJetError("need K >= m to resolve the kernel")
    mod = p ** K
    basis = [[1 if i == j else 0 for i in range(ncols)] for j in range(ncols)]
    # basis is a list of column vectors
    for row in rows:
        vals = []
        for col in basis:
            v = sum(r * c for r, c in zip(row, col)) % mod
            vals.append(v)
        # find pivot: minimum valuation below m
        piv, pivval = None, None
        for j, v in enumerate(vals):
            s = _vp_mod(v, p, K)
            if s is None or s >= m:
                continue
            if pivval is None or s < pivval:
                piv, pivval = j, s
        if piv is None:
            continue
        _shear(basis, piv, vals[piv], pivval, enumerate(vals), p, K)
        basis[piv] = [(p ** (m - pivval) * a) % mod for a in basis[piv]]
    return basis


def lattice_exponents(basis_cols, p: int, K: int):
    """Smith exponents of the lattice spanned by the columns against Z^n,
    by global-minimum-valuation column reduction (column ops preserve the
    lattice).  Returns a list of (exponent, column) with columns reduced,
    sorted by exponent."""
    cols = [list(c) for c in basis_cols]
    nrows = len(cols[0]) if cols else 0
    done_rows: set[int] = set()
    out = []
    remaining = list(range(len(cols)))
    while remaining:
        best = None  # (val, col_index, row_index)
        for j in remaining:
            for r in range(nrows):
                if r in done_rows:
                    continue
                s = _vp_mod(cols[j][r], p, K)
                if s is None:
                    continue
                if best is None or s < best[0]:
                    best = (s, j, r)
        if best is None:
            # columns vanish mod p^K on all remaining rows
            for j in remaining:
                out.append((K, cols[j]))
            break
        s, jp, rp = best
        pivcol = cols[jp]
        _shear(cols, jp, pivcol[rp], s, ((j, cols[j][rp]) for j in remaining),
               p, K)
        out.append((s, pivcol))
        done_rows.add(rp)
        remaining.remove(jp)
    out.sort(key=lambda t: t[0])
    return out


def solve_padic(columns, target):
    """Least-residual solve of sum_j x_j * columns[j] = target over Q_p.

    columns: list of lists of PadicRational (equal length); target: list
    of PadicRational.  Returns (xs, residual_valuation) where xs are the
    PadicRational coefficients from valuation-pivoted Gauss-Jordan
    elimination and residual_valuation is the minimum valuation of the
    remaining mismatch (inf if it vanishes at working precision).

    Eliminating column j updates only the later columns and the target,
    in every row: the pivot search of a later column, xs and the
    residual read nothing else, so column j and the columns before it are
    left as they stand.
    """
    k = len(columns)
    nrows = len(target)
    rows = [[col[i] for col in columns] + [target[i]] for i in range(nrows)]
    piv_rows: list[int] = []
    for j in range(k):
        best, bestval = None, None
        for i in range(nrows):
            if i in piv_rows:
                continue
            e = rows[i][j]
            if e.is_zero():
                continue
            if bestval is None or e.valuation() < bestval:
                best, bestval = i, e.valuation()
        if best is None:
            raise PrecisionExhausted(f"column {j} vanishes at working precision")
        piv_rows.append(best)
        pr = rows[best]
        inv = pr[j].inverse()
        tail = [e * inv for e in pr[j + 1:]]
        pr[j + 1:] = tail
        for i in range(nrows):
            row = rows[i]
            f = row[j]
            if i == best or f.is_zero():
                continue
            row[j + 1:] = [a - f * b for a, b in zip(row[j + 1:], tail)]
    xs = [rows[piv_rows[j]][-1] for j in range(k)]
    resid = _INF
    for i in range(nrows):
        if i in piv_rows:
            continue
        e = rows[i][-1]
        if not e.is_zero():
            resid = min(resid, e.valuation())
    return xs, resid
