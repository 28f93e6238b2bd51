"""Integer homology of a cover and its presentation, for the tests.

Exact integer row and column reduction (``_diagonalize``) gives the
abelianized relation lattice of a fundamental-group presentation and the
integer 2-cycles of a cover's triangles.  No report reads these; the
tests use ``free_h1_coordinates`` to build morphisms that satisfy every
relation of a presentation exactly, and check the rank and cycles of
the built-in covers.
"""

from __future__ import annotations

from flatnet.covers import Cover, Pi1Presentation, Triple


def _diagonalize(mat: list[list[int]]) -> tuple[list[int], list[list[int]], list[list[int]]]:
    """Row/column reduce an integer matrix to diagonal form.

    Returns (diag, uinv, v) with uinv @ mat @ v diagonal; uinv collects the
    row operations, v the column operations (both unimodular).  Exact
    integer arithmetic throughout.
    """
    a = [row[:] for row in mat]
    n = len(a)
    m = len(a[0]) if n else 0
    uinv = [[int(i == j) for j in range(n)] for i in range(n)]
    v = [[int(i == j) for j in range(m)] for i in range(m)]

    def row_op(i, j, q):  # row_i -= q * row_j
        a[i] = [x - q * y for x, y in zip(a[i], a[j])]
        uinv[i] = [x - q * y for x, y in zip(uinv[i], uinv[j])]

    def col_op(i, j, q):  # col_i -= q * col_j
        for row in a:
            row[i] -= q * row[j]
        for row in v:
            row[i] -= q * row[j]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        uinv[i], uinv[j] = uinv[j], uinv[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    t = 0
    while t < min(n, m):
        # smallest nonzero pivot in the remaining block
        pivot = None
        for i in range(t, n):
            for j in range(t, m):
                if a[i][j] != 0 and (pivot is None or abs(a[i][j]) < abs(a[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, n):
                if a[i][t] != 0:
                    q = a[i][t] // a[t][t]
                    row_op(i, t, q)
                    if a[i][t] != 0:  # remainder smaller than pivot: promote it
                        swap_rows(t, i)
                        dirty = True
            for j in range(t + 1, m):
                if a[t][j] != 0:
                    q = a[t][j] // a[t][t]
                    col_op(j, t, q)
                    if a[t][j] != 0:
                        swap_cols(t, j)
                        dirty = True
        t += 1
    diag = [a[i][i] for i in range(min(n, m))]
    return diag, uinv, v


def relation_matrix(presentation: Pi1Presentation) -> list[list[int]]:
    """Abelianized exponent sums, one row per relation."""
    g = len(presentation.generators)
    rows = []
    for rel in presentation.relations:
        row = [0] * g
        for l in rel.letters:
            row[abs(l) - 1] += 1 if l > 0 else -1
        rows.append(row)
    return rows


def abelianization_rank(presentation: Pi1Presentation) -> int:
    """Free rank of the abelianized presentation group."""
    g = len(presentation.generators)
    rows = relation_matrix(presentation)
    if not rows:
        return g
    # quotient of Z^g by the lattice spanned by the columns of rows^T
    cols = [[rows[i][j] for i in range(len(rows))] for j in range(g)]
    diag, _, _ = _diagonalize(cols)
    rank = sum(1 for d in diag if d != 0)
    return g - rank


def free_h1_coordinates(presentation: Pi1Presentation) -> list[list[int]]:
    """Integer matrix C (b x g): column i is the free-homology class of gen i.

    Any assignment factoring through these coordinates satisfies every
    relation exactly; used to synthesize valid morphisms on covers whose
    presentation carries relations.
    """
    g = len(presentation.generators)
    rows = relation_matrix(presentation)
    if not rows:
        return [[int(i == j) for j in range(g)] for i in range(g)]
    cols = [[rows[i][j] for i in range(len(rows))] for j in range(g)]
    diag, uinv, _ = _diagonalize(cols)
    free_rows = [i for i in range(g) if i >= len(diag) or diag[i] == 0]
    return [uinv[i] for i in free_rows]


def closed_triangle_cycles(cover: Cover) -> list[dict[Triple, int]]:
    """Basis of integer 2-cycles over the cover's triangles.

    Each cycle maps a triple to its coefficient; the oriented boundary of
    triple (r1 < r2 < r3) is +e12 + e23 - e13.
    """
    triples = cover.triples
    edges = cover.overlaps
    eidx = {e: i for i, e in enumerate(edges)}
    bd = [[0] * len(triples) for _ in range(len(edges))]
    for j, (r1, r2, r3, (c12, c13, c23)) in enumerate(triples):
        bd[eidx[(r1, r2, c12)]][j] += 1
        bd[eidx[(r2, r3, c23)]][j] += 1
        bd[eidx[(r1, r3, c13)]][j] -= 1
    if not triples:
        return []
    diag, _, v = _diagonalize(bd)
    cycles = []
    for j in range(len(triples)):
        if j >= len(diag) or diag[j] == 0:
            coeffs = {t: v[i][j] for i, t in enumerate(triples) if v[i][j] != 0}
            if coeffs:
                cycles.append(coeffs)
    return cycles
