"""CSR oracle for flatnet's operator layer, built with scipy alone.

The library keeps every operator as a sum of signed partial permutations
of occupation bitsets (``FieldOp.terms``).  This module builds the same
operators as scipy CSR matrices from a Jordan-Wigner creator written one
basis state at a time, and combines them with scipy's own products, sums
and adjoints, so the tests compare two independent routes.  The window
helpers replay the sparse route of the sector layer: implementers as
creator products, step operators as the bare pair scaled by the edge's
window entry (its adjoint in reverse), chains as sparse products, and
window blocks read straight from the stored rows, signed zeros included.
"""

import numpy as np
import scipy.sparse as sp

from flatnet.covers import oriented
from flatnet.fock import FieldOp

SCAN_CUTOFF = 1e-13


def csr(m) -> sp.csr_matrix:
    """Complex CSR with sorted, summed indices."""
    m = sp.csr_matrix(m, dtype=complex)
    m.sum_duplicates()
    return m


def adjoint(m) -> sp.csr_matrix:
    return csr(m.conj().T)


def loop_creator(fock, mode) -> sp.csr_matrix:
    """Reference Jordan-Wigner creator built one basis state at a time."""
    rows, cols, vals = [], [], []
    bit = 1 << mode
    below = bit - 1
    for s in range(fock.dim):
        if s & bit:
            continue
        sign = -1.0 if bin(s & below).count("1") % 2 else 1.0
        rows.append(s | bit)
        cols.append(s)
        vals.append(sign)
    return sp.csr_matrix((vals, (rows, cols)), shape=(fock.dim, fock.dim), dtype=complex)


def identity(fock) -> sp.csr_matrix:
    return sp.identity(fock.dim, dtype=complex, format="csr")


def field(fock, f) -> sp.csr_matrix:
    """psi(f) = sum_i f_i c_i^dagger as a sparse sum of reference creators."""
    acc = sp.csr_matrix((fock.dim, fock.dim), dtype=complex)
    for i in np.nonzero(f)[0]:
        acc = acc + complex(f[i]) * loop_creator(fock, int(i))
    return csr(acc)


def gauge(zeta, m, fock) -> sp.csr_matrix:
    """U m U^* for the gauge unitary U = zeta^N."""
    d = np.power(complex(zeta), fock.occupation_counts)
    c = m.tocoo()
    return csr(sp.coo_matrix(((d[c.row] * c.data) * d.conj()[c.col], (c.row, c.col)), shape=c.shape))


def terms_csr(fock, terms) -> sp.csr_matrix:
    """Evaluate ``(one, zero, flip, sign)`` terms one basis state at a time."""
    rows, cols, vals = [], [], []
    for (one, zero, flip, sign), c in terms.items():
        for s in range(fock.dim):
            if s & one == one and not s & zero:
                rows.append(s ^ flip)
                cols.append(s)
                vals.append(complex(-1.0 if bin(s & sign).count("1") % 2 else 1.0) * c)
    return csr(sp.coo_matrix((vals, (rows, cols)), shape=(fock.dim, fock.dim), dtype=complex))


def as_field_op(m, fock, support=frozenset()) -> FieldOp:
    """A FieldOp equal to a matrix: one term per stored entry, conditioned
    on every mode of its column."""
    c, full = sp.coo_matrix(m), fock.dim - 1
    return FieldOp(
        {(int(j), full & ~int(j), int(i ^ j), 0): complex(v)
         for i, j, v in zip(c.row, c.col, c.data) if v != 0},
        fock, frozenset(support),
    )


def scan_grades(fock, m) -> frozenset:
    """Charge transfers of the blocks a matrix couples, entries under
    ``SCAN_CUTOFF`` times the largest ignored."""
    c = csr(m).tocoo()
    mags = np.abs(c.data)
    scale = mags.max(initial=0.0)
    if not np.isfinite(scale):
        raise ValueError("operator has a non-finite entry, so it has no grading")
    if scale == 0.0:
        return frozenset()
    keep = mags > SCAN_CUTOFF * scale
    counts = fock.occupation_counts
    return frozenset((counts[c.row[keep]] - counts[c.col[keep]]).tolist())


# ---------------------------------------------------------------------------
# the sparse route of the sector layer


def implementer(fock, modes) -> sp.csr_matrix:
    """The ordered product of the creators of ``modes``."""
    mat = loop_creator(fock, modes[0])
    for m in modes[1:]:
        mat = csr(mat @ loop_creator(fock, m))
    return mat


def z1(window, dst, src) -> sp.csr_matrix:
    """The bare pair phi_dst phi_src^*."""
    imps = window.implementers
    return csr(implementer(window.fock, imps[dst].modes) @ adjoint(implementer(window.fock, imps[src].modes)))


def oracle_step(t, dst, src, comp) -> sp.csr_matrix:
    """The bare pair scaled by the edge's window entry forward, its adjoint
    in reverse."""
    (u, v, c), forward = oriented(dst, src, comp)
    op = csr(z1(t.window, v, u) * complex(t.weights[(u, v, c)]))
    return op if forward else adjoint(op)


def oracle_product(t, crossings) -> sp.csr_matrix:
    """Sparse product of the oracle steps (later steps left, reflexive
    steps skipped); the identity when no step moves."""
    prod = None
    for dst, src, comp in crossings:
        if dst != src:
            step = oracle_step(t, dst, src, comp)
            prod = step if prod is None else csr(step @ prod)
    return identity(t.window.fock) if prod is None else prod


def compress(window, m) -> np.ndarray:
    """The window block of a CSR matrix: entry (i, j) is m[columns[i],
    columns[j]], read straight from the stored rows."""
    m, columns, n = csr(m), window.columns, len(window.columns)
    position = np.full(window.fock.dim, -1)  # window position of each basis index
    position[columns] = np.arange(n)
    starts, ends = m.indptr[columns], m.indptr[columns + 1]
    at = np.concatenate([np.arange(a, b) for a, b in zip(starts.tolist(), ends.tolist())])
    rows = np.repeat(np.arange(n), ends - starts)
    cols = position[m.indices[at]]
    hit = cols >= 0
    out = np.zeros((n, n), dtype=complex)
    out[rows[hit], cols[hit]] = m.data[at[hit]]
    return out


def oracle_block(t, crossings) -> np.ndarray:
    """``compress`` of the oracle product."""
    return compress(t.window, oracle_product(t, crossings))
