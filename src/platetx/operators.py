"""Matrix-free discrete operators on the transmission grid.

The clamped Laplacian uses reflection ghosts, which makes it self-adjoint on
clamped fields; the bending operator is its weighted normal form, so symmetry
and positivity of the energy form are structural. The thermal operator is
that of an edge-based gradient form plus a Robin line term, thermal_form
(exactly symmetric), whose interior rows coincide with the 5-point stencil
and whose boundary rows reproduce the Robin ghost elimination; the form is
also the one source of the dissipation. Its implicit solve,
FrameThermalSolver, is direct and works on the sine coefficients of the
interior temperature and its values on the outer boundary: on the interior
the thermal matrix is diagonal in sine modes, and one capacitance matrix on
the boundary values and the interface multipliers imposes the Robin rows
and the Dirichlet condition on the interface. The clamped plate's
preconditioner, ClampedSinePreconditioner, uses the same capacitance
technique on the first interior ring. Both capacitance matrices split into
blocks by the parity of the modes, in sums and differences of values at
mirror nodes (the thermal one for an inner box centred on the square); each
keeps the explicit inverses of its blocks, padded in one array and built
by one routine (_quasi_definite_inverse, its definite parts inverted by
_spd_inverse from batched Cholesky factors, with numpy alone), and applies
them as one batched product.
ClampedPlateHat applies the clamped plate's mass and bending on sine
coefficients and builds the plate's ClampedSinePreconditioner;
FrameThermalSolver applies the coupling of the thermal solve with the plate
on the same coefficients. Between them they hold both halves of the time
stepper's reduced operator.

The Dirichlet 5-point Laplacian is diagonal in the discrete sine basis. A
2-D sine transform of interior values X is the product S X S with S the
orthonormal DST-I matrix (sine_matrix), which is symmetric and its own
inverse, so the forward and the inverse transform are the same two-sided
product. S and the eigenvalue grid are built once per grid size. S is
persymmetric: every column is symmetric or antisymmetric about the grid
centre. ParityBasis makes its two-sided products, with the modes in
parity-blocked order (symmetric first); from FOLD_MIN_SIZE on it folds each
side by parity into two GEMMs of half the size, which halves the flops.
"""

import functools
import itertools
import math
from collections import namedtuple

import numpy as np

from .domain import Domain
from .errors import SolverError
from .fields import PhysParams


# ---------------------------------------------------------------------------
# clamped plate stencils

@functools.lru_cache(maxsize=8)
def _boundary_stencil(n: int) -> np.ndarray:
    """Flat indices, read only, of the 4n boundary nodes of the (n+1)^2 grid
    (row 0) and of their north, south, west and east neighbours (rows 1-4),
    a missing neighbour replaced by its reflection ghost's mirror node."""
    k = np.arange(n + 1)
    i = np.concatenate((np.zeros(n + 1, int), np.full(n + 1, n), k[1:-1],
                        k[1:-1]))
    j = np.concatenate((k, k, np.zeros(n - 1, int), np.full(n - 1, n)))

    def step(x, d):
        return np.where((x + d < 0) | (x + d > n), x - d, x + d)

    m = n + 1
    idx = np.stack((i * m + j, step(i, -1) * m + j, step(i, 1) * m + j,
                    i * m + step(j, -1), i * m + step(j, 1)))
    idx.flags.writeable = False
    return idx


def laplacian_clamped(domain: Domain, u: np.ndarray) -> np.ndarray:
    """5-point Laplacian of a clamped field, evaluated at every node, with
    reflection ghosts (u_ghost = u_mirror, the zero normal derivative of
    the clamped boundary): on the outer boundary the missing neighbour is
    the mirror of the inner one. It is clamped_five_point(u) / h^2."""
    out = clamped_five_point(u)
    return np.divide(out, domain.h * domain.h, out=out)


def clamped_five_point(u: np.ndarray, out: np.ndarray | None = None):
    """h^2 times laplacian_clamped(u): the 5-point sum without the 1/h^2,
    written into out (C-contiguous, the shape of u) when given.

    Rows 1..n-1 are one 5-point sum over the flattened array, whose west and
    east terms wrap to the adjacent row at columns 0 and n; the boundary
    nodes, those two columns included, are then rewritten from their
    neighbours gathered by _boundary_stencil. Every node sums
    (north + south + west + east) - 4 centre in that order, the order of
    the sum over a ghost array."""
    n = u.shape[0] - 1
    m = n + 1
    f = u.ravel()
    out = np.empty(u.shape) if out is None else out
    o = out.ravel()
    c = slice(m, f.size - m)
    np.add(f[:-2 * m], f[2 * m:], out=o[c])
    o[c] += f[m - 1:f.size - m - 1]
    o[c] += f[m + 1:f.size - m + 1]
    o[c] -= 4.0 * f[c]
    idx = _boundary_stencil(n)
    v = f[idx]
    o[idx[0]] = v[1] + v[2] + v[3] + v[4] - 4.0 * v[0]
    return out


def laplacian_clamped_transpose(domain: Domain, r: np.ndarray) -> np.ndarray:
    """Exact transpose of laplacian_clamped as a matrix on nodal values.

    A boundary node reads the inner neighbour behind its reflection ghost
    twice: in _boundary_stencil its north and south (or west and east)
    entries coincide. The transpose is clamped_five_point(r) with that
    second copy moved out of the boundary node's row and into its inner
    neighbour's row. Within one pair of entries the inner neighbours are
    distinct (n >= 3), so each move is one fancy-index update."""
    out = clamped_five_point(r)
    f, o = r.ravel(), out.ravel()
    idx = _boundary_stencil(r.shape[0] - 1)
    for near, far in ((idx[1], idx[2]), (idx[3], idx[4])):
        twice = near == far
        node, inner = idx[0][twice], near[twice]
        o[node] -= f[inner]
        o[inner] += f[node]
    out /= domain.h * domain.h
    return out


def biharmonic_transmission(domain: Domain, u: np.ndarray,
                            params: PhysParams) -> np.ndarray:
    """Operator of the bending form a(u,p) = sum_regions beta <lap u, lap p>.

    Returns the pointwise strong form on free nodes (zero on gamma1); the
    interface flux conditions hold weakly through the beta-weighted form.
    """
    h2 = domain.h * domain.h
    q = params.bending_coeff(domain) * laplacian_clamped(domain, u)
    out = laplacian_clamped_transpose(domain, q) / h2
    out[domain.gamma1] = 0.0
    return out


def gradient_form(domain: Domain, a: np.ndarray, b: np.ndarray) -> float:
    """Edge-based discrete integral of grad(a).grad(b) over the full square.

    Exactly summation-by-parts compatible with laplacian_clamped on clamped
    fields: <lap a, b>_w = -gradient_form(a, b) whenever b vanishes on gamma1.
    """
    dax = a[1:, :] - a[:-1, :]
    dbx = b[1:, :] - b[:-1, :] if b is not a else dax
    day = a[:, 1:] - a[:, :-1]
    dby = b[:, 1:] - b[:, :-1] if b is not a else day
    return float(np.sum(dax * dbx) + np.sum(day * dby))


def central_differences(u: np.ndarray, out: np.ndarray | None = None):
    """u(next node) - u(previous node) along x and along y at every node,
    as one (2, n+1, n+1) array (out, C-contiguous, when given), with
    clamped reflection ghosts: on gamma1 the component normal to the
    boundary reads the mirror of its inner neighbour on both sides, so it
    is 0.0.

    Each component is one difference over the flattened array; the y
    differences wrap to the adjacent row at columns 0 and n, which are
    then set to 0.0."""
    n = u.shape[0] - 1
    m = n + 1
    f = u.ravel()
    d = np.empty((2,) + u.shape) if out is None else out
    dx, dy = d.reshape(2, -1)
    np.subtract(f[2 * m:], f[:-2 * m], out=dx[m:-m])
    dx[:m] = 0.0
    dx[-m:] = 0.0
    np.subtract(f[2:], f[:-2], out=dy[1:-1])
    d[1, :, ::n] = 0.0
    return d


# ---------------------------------------------------------------------------
# two-sided products with a persymmetric basis

# Basis size from which ParityBasis folds its products, the measured
# crossover. Per two-sided product, dense against folded (1 BLAS thread,
# Intel Xeon, OpenBLAS 0.3.31, fastest of 1500): size 63 0.019 against
# 0.032 ms, 99 0.085 against 0.093 ms, 101 0.096 against 0.078 ms and
# 127 0.164 against 0.110 ms.
FOLD_MIN_SIZE = 100


def parity_order(size: int) -> np.ndarray:
    """The parity-blocked order of size modes: the even ones, then the
    odd ones, each ascending."""
    return np.concatenate((np.arange(0, size, 2), np.arange(1, size, 2)))


class ParityBasis:
    """Two-sided products with a square basis B of size N whose columns
    are in turn symmetric (even k) and antisymmetric (odd k) about the
    centre of the grid, B[N-1-i, k] = (-1)^k B[i, k]:

        project(X) = B^T X B,    expand(Y) = B Y B^T,

    modes in the parity-blocked order (parity_order): the ke = N - N//2
    symmetric modes first, then the N//2 antisymmetric ones; self.b is B
    with its columns in that order. Below FOLD_MIN_SIZE they are the dense
    products. From FOLD_MIN_SIZE on each side is folded: with the
    butterfly X[i] +- X[N-1-i] of the rows of X, the symmetric modes of
    B^T X see only the sums and the antisymmetric ones only the
    differences, so B^T X is two GEMMs with the top halves of the two
    column sets, and B Y is the same two GEMMs followed by the butterfly;
    that is half the flops of the dense product. The column side is the
    same fold on the columns: its butterfly reads (project) or writes
    (expand) the columns in reverse, and its GEMMs multiply from the
    right, so in the blocked order each GEMM fills a contiguous block of
    columns and no transposed copy is made. For odd N the centre row
    belongs to the symmetric modes alone; the butterfly of project
    doubles it, so the fold halves that row of B. The fold reads only the
    rows of B up to the centre, so it uses B with exact parity.
    """

    def __init__(self, b: np.ndarray):
        size = len(b)
        half = size // 2
        self.b = np.ascontiguousarray(b[:, parity_order(size)])
        self._bt = np.ascontiguousarray(self.b.T)
        # top rows of the symmetric (with the centre) and antisymmetric
        # modes, for expand, and their transposes
        k = size - half
        self._sym = np.ascontiguousarray(self.b[:k, :k])
        self._anti = np.ascontiguousarray(self.b[:half, k:])
        self._sym_t = np.ascontiguousarray(self._sym.T)
        self._anti_t = np.ascontiguousarray(self._anti.T)
        # for project, the centre row halved
        self._sym_c = self._sym.copy()
        self._sym_c[half:] *= 0.5
        self._sym_ct = np.ascontiguousarray(self._sym_c.T)

    def project(self, x: np.ndarray) -> np.ndarray:
        """B^T X B."""
        if len(self.b) < FOLD_MIN_SIZE:
            return self._bt @ x @ self.b
        k, half = len(self._sym), len(self._anti)
        xr = x[::-1]
        y = np.empty(x.shape)
        np.matmul(self._sym_ct, x[:k] + xr[:k], out=y[:k])
        np.matmul(self._anti_t, x[:half] - xr[:half], out=y[k:])
        yr = y[:, ::-1]
        out = np.empty(x.shape)
        np.matmul(y[:, :k] + yr[:, :k], self._sym_c, out=out[:, :k])
        np.matmul(y[:, :half] - yr[:, :half], self._anti, out=out[:, k:])
        return out

    def expand(self, y: np.ndarray, out: np.ndarray | None = None):
        """B Y B^T, written into out when given."""
        if out is None:
            out = np.empty(y.shape)
        if len(self.b) < FOLD_MIN_SIZE:
            return np.matmul(self.b @ y, self._bt, out=out)
        k, half = len(self._sym), len(self._anti)
        e = self._sym @ y[:k]
        o = self._anti @ y[k:]
        x = np.empty(y.shape)
        x[half:k] = e[half:]  # the centre row of odd N
        np.add(e[:half], o, out=x[:half])
        np.subtract(e[:half], o, out=x[::-1][:half])
        e = x[:, :k] @ self._sym_t
        o = x[:, k:] @ self._anti_t
        out[:, half:k] = e[:, half:]
        np.add(e[:, :half], o, out=out[:, :half])
        np.subtract(e[:, :half], o, out=out[:, ::-1][:, :half])
        return out


# ---------------------------------------------------------------------------
# thermal operator (mixed Dirichlet / Robin)

def thermal_form(domain: Domain, a: np.ndarray, b: np.ndarray,
                 params: PhysParams) -> float:
    """H^1_D form on the frame: frame_gradient_form plus the Robin boundary
    term lam * gamma1_form (no beta0 factor). beta0 thermal_form(th, th) is
    the dissipation D."""
    return frame_gradient_form(domain, a, b) + params.lam * gamma1_form(
        domain, a, b)


def frame_gradient_form(domain: Domain, a: np.ndarray,
                        b: np.ndarray) -> float:
    """Edge-weighted discrete integral of grad(a).grad(b) over the frame
    (edge weights ce_h, and its transpose on the y edges): the gradient
    part of thermal_form. The y differences are taken over the flattened
    arrays, with the weights ce_v_flat, which vanish on the differences
    that wrap to the next row."""
    dax = a[1:, :] - a[:-1, :]
    dbx = b[1:, :] - b[:-1, :] if b is not a else dax
    fa = a.ravel()
    day = fa[1:] - fa[:-1]
    if b is a:
        dby = day
    else:
        fb = b.ravel()
        dby = fb[1:] - fb[:-1]
    return float(np.vdot(domain.ce_h * dax, dbx)
                 + np.vdot(domain.ce_v_flat * day, dby))


def gamma1_form(domain: Domain, a: np.ndarray, b: np.ndarray) -> float:
    """Line integral of a*b over gamma1, weight h at each of its 4n nodes:
    the Robin part of thermal_form, which reads only those nodes."""
    idx = _boundary_stencil(domain.n)[0]
    va = a.ravel()[idx]
    vb = b.ravel()[idx] if b is not a else va
    return domain.h * float(np.dot(va, vb))


def _mirror_rows(rows: np.ndarray, ke: int):
    """Rows of a persymmetric basis (modes parity-blocked, ke even) at nodes
    symmetric about the grid centre, rotated to the sums and differences
    over sqrt 2 of mirror nodes (a centre node alone), which meet only the
    even and the odd modes: the rows, and the number of sums."""
    m = len(rows)
    half = m // 2
    out = np.zeros(rows.shape)
    out[:m - half, :ke] = rows[:m - half, :ke]
    out[:half, :ke] *= math.sqrt(2.0)
    out[m - half:, ke:] = math.sqrt(2.0) * rows[:half, ke:]
    return out, m - half


def _lower_inverse(low: np.ndarray) -> np.ndarray:
    """Inverses, written over low, of a stack of lower triangular matrices.
    The inverse of [[A, 0], [C, B]] is [[A^-1, 0], [-B^-1 C A^-1, B^-1]],
    so the inverses of all diagonal blocks of one size come from those of
    half the size, in place, by two batched products, from the reciprocal
    diagonal up; a size that is not a power of two splits off its largest
    power of two first."""
    n = low.shape[-1]
    p = 1 << (n.bit_length() - 1)
    lead = low[..., :p, :p]
    diag = np.einsum("...ii->...i", lead)
    np.reciprocal(diag, out=diag)
    size = 1
    while size < p:
        # the pairs [[A^-1, 0], [C, B^-1]] of diagonal blocks of this size
        pairs = np.einsum("...iaxiby->...iabxy", lead.reshape(
            low.shape[:-2] + (p // (2 * size), 2, size) * 2))
        t = np.matmul(pairs[..., 1, 1, :, :], pairs[..., 1, 0, :, :])
        np.negative(t, out=t)
        np.matmul(t, pairs[..., 0, 0, :, :], out=pairs[..., 1, 0, :, :])
        size *= 2
    if p < n:
        rest = _lower_inverse(low[..., p:, p:])
        t = np.matmul(rest, low[..., p:, :p])
        np.negative(t, out=t)
        np.matmul(t, lead, out=low[..., p:, :p])
    return low


def _spd_inverse(a: np.ndarray, solver: str,
                 out: np.ndarray | None = None) -> np.ndarray:
    """Inverses of a stack of SPD matrices (into out when given), L^-T L^-1
    from their Cholesky factors L (_lower_inverse), one batched product.
    The batched Cholesky factorization is the definiteness test:
    SolverError, naming the solver, when a matrix of the stack has none."""
    try:
        low = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        raise SolverError(f"{solver}: capacitance matrix is not positive "
                          "definite (Cholesky factorization)") from None
    inv_low = _lower_inverse(low)
    return np.matmul(inv_low.swapaxes(-1, -2), inv_low, out=out)


def _quasi_definite_inverse(a: np.ndarray, nd: int, nb: int,
                            solver: str) -> np.ndarray:
    """Inverses, written over a, of a stack of symmetric
    a = [[Sigma, X], [X^T, -C]], Sigma the first nb rows and diagonal on
    the first nd, C and Z = Sigma + X C^-1 X^T positive definite; nb = the
    size means no multipliers, C and X empty. The capacitance matrices of
    FrameThermalSolver and ClampedSinePreconditioner both go through here.
    The diagonal D goes first: with a = [[D, B^T], [B, R]],
    S = R - B D^-1 B^T and G = S^-1 B D^-1,
    a^-1 = [[D^-1 + (B D^-1)^T G, -G^T], [-G, S^-1]], and S, of the form
    of a, has the inverse [[Z^-1, Z^-1 X C^-1], [C^-1 X^T Z^-1,
    C^-1 X^T Z^-1 X C^-1 - C^-1]] (C^-1 and Z^-1 by _spd_inverse).
    SolverError, naming the solver, unless D is positive and C and Z are
    positive definite."""
    def t(x):
        return x.swapaxes(-1, -2)

    diag = np.einsum("...ii->...i", a)
    if not np.min(diag[..., :nd]) > 0.0:
        raise SolverError(f"{solver}: capacitance matrix is not positive "
                          "definite (diagonal part)")
    d_inv = 1.0 / diag[..., :nd]
    root = np.sqrt(d_inv)[..., None]
    # F^T = D^-1/2 B^T in place of B^T, S = R - F F^T as one symmetric
    # product
    b_t, b, s = a[..., :nd, nd:], a[..., nd:, :nd], a[..., nd:, nd:]
    b_t *= root
    s -= np.matmul(t(b_t), b_t)
    nb -= nd
    if nb == s.shape[-1]:
        _spd_inverse(s, solver, out=s)
    else:
        x, z, c = s[..., :nb, nb:], s[..., :nb, :nb], s[..., nb:, nb:]
        c_inv = _spd_inverse(-c, solver)
        xc = x @ c_inv
        z += xc @ t(x)
        _spd_inverse(z, solver, out=z)
        np.matmul(z, xc, out=x)
        s[..., nb:, :nb] = t(x)
        np.matmul(t(xc), x, out=c)
        c -= c_inv
    # G^T = D^-1 B^T S^-1, then the D rows D^-1 + G^T B D^-1
    b_t *= root
    g_t = np.matmul(b_t, s)
    np.matmul(g_t, t(b_t), out=a[..., :nd, :nd])
    diag[..., :nd] += d_inv
    np.negative(g_t, out=b_t)
    np.negative(t(g_t), out=b)
    return a


_PAIR = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)  # sum, difference

# FrameThermalSolver's geometry on one grid, read only: side rows ends and
# box (e / beta0, e'), interface rows r, r_int = [r; box], blocks of r, the
# groups of the stacked blocks (kind, side or corner, rows or None for unit
# rows, positions in v; the unit-row groups first), their modes ks and ls,
# the boundary x-side and boundary unknowns per block nd and nb, -1 on
# padded multipliers, gather and scatter of v (nv positions and a zero),
# weights of the coordinates
_FrameLayout = namedtuple(
    "_FrameLayout", "ends box r r_int box_pair groups ks ls nd nb pad "
    "gather scatter nv weight")


@functools.lru_cache(maxsize=8)
def _frame_layout(n: int, lo: int, hi: int) -> _FrameLayout:
    """The geometry of FrameThermalSolver on the n-cell grid with the inner
    box lo..hi (class docstring), built once per grid."""
    s = sine_basis(n).b
    m = n - 1
    ke = m - m // 2
    par = (np.arange(ke), np.arange(ke, m))
    centred = lo + hi == n
    ends, box = np.zeros((2, m + 1)), np.zeros((2, m + 1))  # and mode m
    for a, pa in enumerate(par):
        ends[a, pa] = s[0, pa]
        box[a, pa] = s[lo - 1, pa]
    ends *= math.sqrt(2.0)
    if centred:
        box *= math.sqrt(2.0)
        r, nr = _mirror_rows(s[lo:hi - 1], ke)
        rows = (np.arange(nr), np.arange(nr, len(r)))
        box_pair = (r[:nr, :ke].copy(), r[nr:, ke:].copy())
    else:
        box[:, :m] = s[[lo - 1, hi - 1]]
        r = s[lo:hi - 1]
        box_pair = (r, np.zeros((0, 0)))
    ni = len(r)
    r_int = np.concatenate((r, box[:, :m]))
    # the positions in v: boundary x- and y-sides (2, 2, m), corners (2, 2),
    # interface x-sides and box corners, interface y-sides (2, 2, ni + 2)
    nb = 4 * m + 4
    nv = nb + 4 * (ni + 2)
    at_s = np.full((2, 2, m + 1), nv)
    at_s[..., :m] = np.arange(4 * m).reshape(2, 2, m)
    at_c = np.arange(4 * m, nb).reshape(2, 2)
    at_g = np.full((2, 2, ni + 3), nv)
    at_g[..., :-1] = np.arange(nb, nv).reshape(2, 2, ni + 2)
    if centred:
        # the blocks (0, 0), (0, 1) and (1, 1), their modes padded with
        # the mode m; rows padded with the zero row ni + 2
        a, b = np.array([0, 0, 1]), np.array([0, 1, 1])
        modes = np.full((2, ke), m)
        modes[0], modes[1, :m - ke] = par
        ks, ls = modes[a], modes[b]
        y_rows = np.full((2, len(rows[0])), ni + 2)
        y_rows[0], y_rows[1, :len(rows[1])] = rows
        x_rows = np.append(y_rows, [[ni], [ni + 1]], axis=1)[b]
        y_rows = y_rows[a]
        r_pad = np.zeros((ni + 3, m + 1))
        r_pad[:ni + 2, :m] = r_int
        groups = [
            ("x", a, None, at_s[0, a[:, None], ls]),
            ("c", np.stack((a, b), 1), None, at_c[a, b][:, None]),
            ("y", b, None, at_s[1, b[:, None], ks]),
            ("x", 2 + a, r_pad[x_rows[..., None], ls[:, None]],
             at_g[0, a[:, None], x_rows]),
            ("y", 2 + b, r_pad[y_rows[..., None], ks[:, None]],
             at_g[1, b[:, None], y_rows])]
        nxb = 1
    else:
        ks = ls = np.arange(m)[None]
        one = [np.array([a]) for a in (0, 1)]
        groups = ([("x", a, None, at_s[0, a, :m]) for a in one]
                  + [("c", np.array([[a, b]]), None, at_c[None, a, b:b + 1])
                     for a in (0, 1) for b in (0, 1)]
                  + [("y", a, None, at_s[1, a, :m]) for a in one]
                  + [("x", 2 + a, r_int[None], at_g[0, a, :-1]) for a in one]
                  + [("y", 2 + a, r[None], at_g[1, a, :ni]) for a in one])
        nxb = 2
    at = np.concatenate([g[3] for g in groups], axis=1)
    pos = np.cumsum([0] + [g[3].shape[1] for g in groups])
    nd, nb_block = pos[nxb], (pos[3] if centred else pos[8])
    pad = np.where((at == nv) & (np.arange(at.shape[1]) >= nb_block), -1.0,
                   0.0)
    # the gather of the blocks' right sides, (1, 0) beside its mirror image
    # (0, 1): a side of the other kind, a transposed (box) corner
    gather = at[..., None]
    if centred:
        mirror = np.arange(nv + 1)
        mirror[at_s[..., :m]] = at_s[::-1, :, :m]
        mirror[at_c] = at_c.T
        mirror[at_g[..., :-1]] = at_g[::-1, :, :-1]
        mirror[at_g[0, :, ni:-1]] = at_g[0, :, ni:-1].T
        gather = np.stack((at, np.where((a != b)[:, None], mirror[at], nv)),
                          2)
    scatter = np.full(nv + 1, gather.size)
    scatter[gather.ravel()] = np.arange(gather.size)
    weight = np.repeat([1.0, 0.5, 0.25], [m * m, 4 * m, 4]) * (1.0 / n)**2
    for x in [ends, box, r, r_int, *box_pair, ks, ls, pad, gather, scatter,
              weight] + [x for g in groups for x in g[1:] if x is not None]:
        x.flags.writeable = False
    return _FrameLayout(ends, box, r, r_int, box_pair, groups, ks, ls, nd,
                        nb_block, pad, gather, scatter[:-1], nv, weight)


class FrameThermalSolver:
    """Exact solve of (c I + beta0 L) theta = rhs on the free temperature
    dofs, c = 2 rho0/dt and L the operator of thermal_form with respect to
    the frame weights w1 (theta = 0 on gamma0), on sine coefficients.

    Times w1 the system is the restriction of the thermal matrix M of the
    whole square. On the interior nodes M is diagonal in sine modes,
    Q^-1 = c h^2 + beta0 h^2 lambda (dirichlet_sine_eigenvalues); M_bb is
    its block on gamma1, U its coupling -beta0 of a side node to its
    interior neighbour. Multipliers sigma on the interface nodes E0 impose
    theta = 0 there (the capacitance-matrix method of Buzbee, Dorr, George
    and Golub, SIAM J. Numer. Anal. 8, 1971), and inside the box, where the
    right side vanishes. Then theta_I = Q (B_I - U theta_b - E0 sigma) =
    q + Q V z, q = Q B_I, V = [-U, E0], and z = [theta_b; -sigma] solves
    [[Sigma, X], [X^T, -C]] z = [B_b; 0] + V^T q, Sigma = M_bb - U^T Q U,
    X = U^T Q E0, C = E0^T Q E0, with C and Z = Sigma + X C^-1 X^T SPD
    (_quasi_definite_inverse). Sigma alone is nearly singular for lam = 0
    and small rho0/dt, so sigma goes first.

    Coordinates (project, solve_projected, expand): (n+1)^2 values, the
    interior sine coefficients (m, m), m = n - 1, modes parity-blocked; for
    the x-sides (rows 0 and n), then the y-sides, the sum and the
    difference over sqrt 2 of the two sides in 1-D sine coefficients of
    their nodes 1..n-1; the corners (1/2)(theta_00 +- theta_n0 +- theta_0n
    +- theta_nn). There -U takes the x-side unknown (a, l) (a = 0 the sum)
    to beta0 e_a (x) delta_l, e_a = sqrt 2 s_0 on the modes of parity a
    (s_0 the row of S at node 1); E0 an interface x-side node (rows lo and
    hi, nodes lo+1..hi-1) to e'_a (x) r, r the row of S along the side, and
    a box corner to e'_a (x) e'_b; y-sides swap k and l. An entry of
    V^T Q V is a sum over one index: for x-side unknowns a (x) b and
    c (x) d, sum_l b_l d_l rho_l, rho = (a o c) Q; for a y-side b (x) a and
    an x-side c (x) d, (b o c) Q (d o a)^T. M_bb is diagonal on the side
    modes, c h^2/2 + beta0 (2 + lam h - cos(pi l'/n)), l' = 1..n-1, and a
    corner adds c h^2/4 + beta0 (1 + lam h) and -beta0/2 to the first node
    of each side it ends.

    For a box centred on n/2 (lo + hi = n) the mirrors of the square split
    the system into blocks (a, b), a the parity of the modes k and b of l,
    the interface values in sums and differences of opposite sides and of
    mirror nodes along a side (_mirror_rows); the diagonal x = y maps
    (0, 1) onto (1, 0), which reads the mirror images of the unknowns of
    (0, 1) through its inverse. At n = 128 a block has 194 unknowns. Any
    other box makes one block. The blocks are stacked, zero-padded and
    inverted once, their geometry built once per grid (_frame_layout).

    A solve makes no transform and no triangular solve: thin products, one
    batched product with the block inverses and V z as one (m x 8)(8 x m)
    product. The heat source mu L p of a clamped p (L = laplacian_clamped,
    coefficients p^) projects in closed form: -mu h^2 lambda p^ on the
    interior, masked on the open box by one pair of products with its rows
    (block diagonal when centred; the interface values left are read by no
    solve), and mu s_0 p^ on a side (L p = 2 p(1, j)/h^2, weight h^2/2). A
    temperature enters the plate equation as C theta =
    L^T (mu w1 theta)/h^2 = mu (-lambda theta^ + theta_b/h^2 on the first
    interior ring), theta vanishing on the closed box, and
    h^2 <C theta, p> = sum w1 theta mu L p: the pair cancels in the energy
    identity. self.c is c, and self.solves counts the solves. SolverError
    at construction when the diagonal of M is not finite and positive or a
    block is not positive definite.
    """

    def __init__(self, domain: Domain, params: PhysParams, dt: float):
        n, h, m = domain.n, domain.h, domain.n - 1
        h2 = h * h
        beta0 = params.beta0
        c = self.c = 2.0 * params.rho0 / dt
        lay = self._layout = _frame_layout(n, domain.lo_idx, domain.hi_idx)
        self._sine, self._domain = sine_basis(n), domain
        self._closed_box = (slice(domain.lo_idx, domain.hi_idx + 1),) * 2
        lam = dirichlet_sine_eigenvalues(domain)
        # Q^-1 on the interior, the side and the corner rows of M_bb
        q = lam * (beta0 * h2) + c * h2
        side = 0.5 * c * h2 + beta0 * (2.0 + params.lam * h - np.cos(
            np.pi * (parity_order(m) + 1) / n))
        corner = 0.25 * c * h2 + beta0 * (1.0 + params.lam * h)
        if not (0.0 < q.min() <= q.max() < math.inf
                and 0.0 < side.min() <= side.max() < math.inf
                and 0.0 < corner < math.inf):
            raise SolverError("thermal solver: eigenvalues not finite and "
                              "positive")
        q = self._q = np.reciprocal(q, out=q)
        # with the zero mode m: the rows e of -U and of the box corners in
        # E0, rho = (e_s o e_t) Q over k, Q on each block's modes
        e_pad = np.concatenate((beta0 * lay.ends, lay.box))
        e = self._e = e_pad[:, :m].copy()
        side_pad, q_pad = np.append(side, 1.0), np.zeros((m + 1, m + 1))
        q_pad[:m, :m] = q
        rho = (e_pad[:, None] * e_pad) @ q_pad
        ks, ls = lay.ks, lay.ls
        q_kl = q_pad[ks[:, :, None], ls[:, None]]
        # the matrices of the blocks (class docstring): M_bb minus V^T Q V,
        # group by group, the stacked blocks at once; then the corners
        groups = lay.groups
        pos = np.cumsum([0] + [g[3].shape[1] for g in groups])
        a_mat = np.zeros((len(ks), pos[-1], pos[-1]))
        for u, (ku, su, au, _) in enumerate(groups):
            for v, (kv, sv, av, _) in enumerate(groups[:u + 1]):
                out = a_mat[:, pos[u]:pos[u + 1], pos[v]:pos[v + 1]]
                if "c" in (ku, kv):
                    continue
                if ku == kv:
                    mo = ls if ku == "x" else ks
                    r_uv = -rho[su[:, None], sv[:, None], mo]
                    if au is None:  # and av, as unit rows come first
                        np.einsum("bii->bi", out)[...] = r_uv + (
                            side_pad[mo] if u == v else 0.0)
                    elif av is None:
                        out[...] = au * r_uv[:, None]
                    else:
                        np.matmul(au * r_uv[:, None], av.transpose(0, 2, 1),
                                  out=out)
                else:
                    (ay, sy), (ax, sx) = (((au, su), (av, sv)) if ku == "y"
                                          else ((av, sv), (au, su)))
                    ey = -e_pad[sx[:, None], ks]
                    ex = e_pad[sy[:, None], ls]
                    g = (ey[..., None] * q_kl if ay is None
                         else (ay * ey[:, None]) @ q_kl)
                    g = (g * ex[:, None] if ax is None
                         else g @ (ax * ex[:, None]).transpose(0, 2, 1))
                    out[...] = g if ku == "y" else g.transpose(0, 2, 1)
                if v < u:
                    a_mat[:, pos[v]:pos[v + 1], pos[u]:pos[u + 1]] = (
                        out.transpose(0, 2, 1))
        for u, (ku, cor, _, _) in enumerate(groups):
            # a corner (a, b) and the first node of the x-side a and of the
            # y-side b
            if ku != "c":
                continue
            a_mat[:, pos[u], pos[u]] = corner
            for v, (kv, sd, _, _) in enumerate(groups):
                y_side = int(kv == "y")
                if kv != "c" and sd[0] == cor[0, y_side]:
                    a_mat[:, pos[u], pos[v]:pos[v + 1]] = a_mat[
                        :, pos[v]:pos[v + 1], pos[u]] = (-0.5 * beta0) * (
                            lay.ends[cor[:, [1 - y_side]],
                                     ks if y_side else ls])
        if not np.all(np.isfinite(a_mat)):
            raise SolverError("thermal solver: capacitance matrix is not "
                              "finite")
        np.einsum("bii->bi", a_mat)[...] += lay.pad
        self._cinv = _quasi_definite_inverse(a_mat, lay.nd, lay.nb,
                                             "thermal solver")
        # the weights W of the coordinates, read only: for theta =
        # expand(Y), project(c theta) = c W Y up to rounding
        self.weight = lay.weight
        self.solves = 0
        # work arrays: v (with its boundary sides and interface parts) and
        # the block results z, each with a zero at its end; the thin
        # products with q; the factors [e; y-sides]^T [x-sides; e] of V z
        # and [ends; y-sides]^T [x-sides; ends] of the injection; the box
        # pair's, the last also couple_hat's Q y_I and V z
        v, z = np.zeros(lay.nv + 1), np.zeros(lay.gather.size + 1)
        self._v = (v, v[:4 * m].reshape(2, 2, m), v[4 * m + 4:-1].reshape(
            2, 2, -1), z, z[:-1].reshape(lay.gather.shape))
        self._edge = np.empty((2, 4, m))
        self._left, self._right = np.empty((8, m)), np.empty((8, m))
        self._left[:4] = self._right[4:] = e
        self._inject_left, self._inject_right = (np.empty((4, m)),
                                                 np.empty((4, m)))
        self._inject_left[:2] = self._inject_right[2:] = (
            params.mu / h2) * lay.ends[:, :m]
        nr = len(lay.r)
        self._box_work = (np.empty((nr, m)), np.empty((nr, nr)),
                          np.empty((m, nr)), np.empty((m, m)))
        self._corr = self._box_work[3]
        # the weights of the heat source and the coupling (class docstring)
        self._heat = (-params.mu * h2) * lam
        self._couple = np.multiply(lam, -params.mu) * q
        self._source = params.mu * lay.ends[:, :m]

    def expand(self, y: np.ndarray) -> np.ndarray:
        """The temperature on the grid from its coordinates y (the class
        docstring), zero off the free temperature dofs."""
        m = len(self._corr)
        n, mm = m + 1, m * m
        out = np.empty((n + 1, n + 1))
        self._sine.expand(y[:mm].reshape(m, m), out=out[1:-1, 1:-1])
        sides = _PAIR @ (y[mm:mm + 4 * m].reshape(2, 2, m) @ self._sine.b.T)
        out[::n, 1:-1], out[1:-1, ::n] = sides[0], sides[1].T
        out[::n, ::n] = _PAIR @ y[-4:].reshape(2, 2) @ _PAIR
        out[self._closed_box] = 0.0
        return out

    def project(self, rhs: np.ndarray) -> np.ndarray:
        """The coordinates (class docstring) of B = w1 rhs on the free dofs,
        zero elsewhere: the right side of solve_projected."""
        b = self._domain.w1 * rhs
        b[self._closed_box] = 0.0
        m = len(self._corr)
        n, mm = m + 1, m * m
        y = np.empty((n + 1) ** 2)
        y[:mm] = self._sine.project(b[1:-1, 1:-1]).ravel()
        y[mm:-4] = (_PAIR @ (np.stack((b[::n, 1:-1], b[1:-1, ::n].T))
                             @ self._sine.b)).ravel()
        y[-4:] = (_PAIR @ b[::n, ::n] @ _PAIR).ravel()
        return y

    def solve_projected(self, y: np.ndarray) -> np.ndarray:
        """The coordinates of theta (expand), which vanishes on the
        interface and the inner plate up to rounding, as a new array, from
        those of the right side, y = project(rhs), which is read only.
        Counted in self.solves."""
        m = len(self._corr)
        mm = m * m
        out = np.empty(y.shape)
        q = np.multiply(y[:mm].reshape(m, m), self._q,
                        out=out[:mm].reshape(m, m))
        corr = self._solve(y, q)
        corr *= self._q
        q += corr
        out[mm:] = self._v[0][:4 * m + 4]
        return out

    def _solve(self, y, q):
        """V z (in self._corr) of the solve of y, q = Q y_I, y read only;
        the boundary values stay in self._v (class docstring). Counted."""
        self.solves += 1
        lay, (v, sides, inner, z, z_blocks) = self._layout, self._v
        m = len(q)
        mm, nb = m * m, 4 * m + 4
        edge, left, right = self._edge, self._left, self._right
        # v: V^T q (e q, e q^T, then the interface rows) plus the boundary
        np.matmul(self._e, q, out=edge[0])
        np.matmul(self._e, q.T, out=edge[1])
        np.add(edge[:, :2], y[mm:mm + 4 * m].reshape(2, 2, m), out=sides)
        v[4 * m:nb] = y[mm + 4 * m:]
        np.matmul(edge[:, 2:], lay.r_int.T, out=inner)
        # the block inverses, one batched product
        np.matmul(self._cinv, v[lay.gather], out=z_blocks)
        np.take(z, lay.scatter, out=v[:-1])
        # V z, one rank-eight product
        right[:2] = sides[0]
        left[4:6] = sides[1]
        np.matmul(inner[0], lay.r_int, out=right[2:4])
        np.matmul(inner[1, :, :len(lay.r)], lay.r, out=left[6:])
        return np.matmul(left.T, right, out=self._corr)

    def heat_source_hat(self, p_hat: np.ndarray) -> np.ndarray:
        """project(mu lap p) of a clamped p from its sine coefficients, in
        closed form (class docstring), but for interface values."""
        m = len(p_hat)
        mm = m * m
        y = np.empty((m + 2) ** 2)
        inner = y[:mm].reshape(m, m)
        np.multiply(self._heat, p_hat, out=inner)
        inner -= self._box_pair(inner)
        np.matmul(self._source, p_hat, out=y[mm:mm + 2 * m].reshape(2, m))
        np.matmul(self._source, p_hat.T,
                  out=y[mm + 2 * m:mm + 4 * m].reshape(2, m))
        y[-4:] = 0.0
        return y

    def _box_pair(self, x):
        """R^T (R x R^T) R, R the rows of S at the open box, by its blocks
        on the even and odd modes (one block for an off-centre box)."""
        (rs, ro), (t, z, u, out) = self._layout.box_pair, self._box_work
        ke, ns = rs.shape[1], len(rs)
        np.matmul(rs, x[:ke], out=t[:ns])
        np.matmul(ro, x[ke:], out=t[ns:])
        np.matmul(t[:, :ke], rs.T, out=z[:, :ns])
        np.matmul(t[:, ke:], ro.T, out=z[:, ns:])
        np.matmul(rs.T, z[:ns], out=u[:ke])
        np.matmul(ro.T, z[ns:], out=u[ke:])
        np.matmul(u[:, :ns], rs, out=out[:, :ke])
        np.matmul(u[:, ns:], ro, out=out[:, ke:])
        return out

    def couple_hat(self, y: np.ndarray) -> np.ndarray:
        """Sine coefficients of C H^-1 rhs, C the coupling of the
        temperature into the plate equation (class docstring), from y =
        project(rhs), which is read only: -mu lambda theta^ =
        -mu lambda Q (y_I + V z) plus the boundary values (from the solve's
        work vector) on the first interior ring, one (m x 4)(4 x m)
        product."""
        m = len(self._corr)
        mm = m * m
        y_i = y[:mm].reshape(m, m)
        corr = self._solve(y, np.multiply(self._q, y_i,
                                          out=self._box_work[3]))
        corr += y_i
        corr *= self._couple
        left, right = self._inject_left, self._inject_right
        right[:2], left[2:] = self._v[1]
        out = np.matmul(left.T, right)
        out += corr
        return out


# ---------------------------------------------------------------------------
# generic preconditioned CG

def cg_solve(apply, dot, rhs: np.ndarray, tol: float = 1e-10,
             max_iter: int = 10000, precond=None, x0=None, r0=None):
    """Preconditioned conjugate gradients on the matrix-free symmetric
    operator apply(x), with the inner product dot(a, b) that its symmetry
    and the residual norms are taken in.

    Returns (x, iterations, r), r the final recursive residual. The start
    is x0 (zero unless given) with residual r0, which is read only with x0;
    without r0 it is formed as rhs - apply(x0). The residual tolerance
    is relative to |rhs| and is tested before each preconditioner apply,
    so a solve of k iterations preconditions k times. Raises SolverError
    with the last iterate as best on non-convergence or breakdown: pAp <= 0
    (the operator is not positive definite, and that iterate may have a
    larger residual than the start), or <r, z> <= 0 for z the
    preconditioned residual (it underflowed to zero, since tol is below
    what the arithmetic reaches, or the preconditioner is not positive
    definite); and at once, without an iterate, when |rhs| or a residual
    norm is not finite.
    """
    bnorm = np.sqrt(dot(rhs, rhs))
    if not np.isfinite(bnorm):
        raise SolverError("CG right-hand side is not finite", iterations=0)
    if bnorm == 0.0:
        return np.zeros_like(rhs), 0, np.zeros_like(rhs)
    if x0 is None:
        x = np.zeros_like(rhs)
        r = rhs.copy()
    else:
        x = x0.copy()
        r = rhs - apply(x) if r0 is None else r0.copy()
    p = None
    for k in range(max_iter + 1):
        rnorm = np.sqrt(dot(r, r))
        if not np.isfinite(rnorm):
            raise SolverError(f"CG residual is not finite at iteration {k}",
                              residual=rnorm, iterations=k)
        if rnorm <= tol * bnorm:
            return x, k, r
        if k == max_iter:
            break
        z = precond(r) if precond is not None else r
        rz_new = dot(r, z)
        if rz_new <= 0.0:
            why = ("vanished (underflow: the tolerance is below reach)"
                   if rz_new == 0.0 else "is negative")
            raise SolverError(
                f"CG breakdown: the preconditioned residual {why} "
                f"(<r, P^-1 r>={rz_new:g}, relative residual "
                f"{rnorm / bnorm:.3e})",
                best=x, residual=rnorm / bnorm, iterations=k,
            )
        if p is None:
            p = z.copy()
        else:
            p *= rz_new / rz
            p += z
        rz = rz_new
        ap = apply(p)
        pap = dot(p, ap)
        if pap <= 0.0:
            raise SolverError(
                f"CG breakdown: operator not positive definite (pAp={pap:g})",
                best=x, residual=rnorm / bnorm, iterations=k,
            )
        alpha = rz / pap
        x += alpha * p
        ap *= alpha
        r -= ap
    raise SolverError(
        f"CG did not converge in {max_iter} iterations "
        f"(relative residual {rnorm / bnorm:.3e})",
        best=x, residual=rnorm / bnorm, iterations=max_iter,
    )


# ---------------------------------------------------------------------------
# Dirichlet Laplacian on the whole square and its inverse

@functools.lru_cache(maxsize=8)
def sine_matrix(n: int) -> np.ndarray:
    """Orthonormal DST-I matrix of the m = n-1 interior nodes, read only:

        S_jk = sqrt(2/n) sin(pi j k / n),    j, k = 1..m.

    S is symmetric and S S = I, so S X S is both the 2-D sine transform of
    an interior grid X and its inverse. j k is reduced modulo 2n in integers
    first, so the sine's argument stays below 2 pi and carries no rounding
    that grows with n.
    """
    j = np.arange(1, n)
    s = math.sqrt(2.0 / n) * np.sin(np.pi * (np.outer(j, j) % (2 * n)) / n)
    s.flags.writeable = False
    return s


@functools.lru_cache(maxsize=8)
def sine_basis(n: int) -> ParityBasis:
    """The two-sided products with S = sine_matrix(n), whose column k
    (counted from 0) is symmetric for even k and antisymmetric for odd k,
    since sin(pi (n-j) (k+1)/n) = (-1)^k sin(pi j (k+1)/n); built once
    per grid size. Its sine coefficients are in parity-blocked order."""
    return ParityBasis(sine_matrix(n))


@functools.lru_cache(maxsize=8)
def _sine_eigenvalues(n: int) -> np.ndarray:
    h = 1.0 / n
    lam1d = (4.0 / (h * h)) * np.sin(np.arange(1, n) * np.pi / (2 * n)) ** 2
    lam1d = lam1d[parity_order(n - 1)]
    lam = lam1d[:, None] + lam1d[None, :]
    lam.flags.writeable = False
    return lam


def dirichlet_sine_eigenvalues(domain: Domain) -> np.ndarray:
    """Eigenvalues of the 5-point Dirichlet -Laplacian on interior nodes,
    as a read-only (n-1, n-1) grid in the mode order of sine_basis(n)
    (parity-blocked), built once per grid size."""
    return _sine_eigenvalues(domain.n)


def sine_solve(domain: Domain, rhs_interior: np.ndarray,
               symbol: np.ndarray) -> np.ndarray:
    """Diagonal solve in the discrete sine basis (interior nodes): the
    transform S rhs S, a division by symbol and the transform back, two
    two-sided products with S = sine_matrix(n) (sine_basis). No solver
    calls it: it is kept for the tests and for perfbench, whose traced
    layers name it, until the benchmark traces the coefficient path."""
    s = sine_basis(domain.n)
    coeff = s.project(rhs_interior)
    coeff /= symbol
    return s.expand(coeff)


class ClampedSinePreconditioner:
    """Sine-basis preconditioner corrected on the clamped boundary rows.

    On a clamped p (zero on gamma1), laplacian_clamped agrees with the
    Dirichlet 5-point Laplacian at interior nodes and gives 2 p(1,j)/h^2 at
    the boundary node (0,j) and its images on the other sides, from the
    reflection ghost. A bending form L^T (weight L p)/h^2 is therefore its
    Dirichlet counterpart plus, for each of the 4(n-1) non-corner boundary
    nodes, the diagonal term d = 4 weight(0,j)/h^6 at its interior
    neighbour; the nodes next to a corner get two such terms.

    With P = S diag(1/symbol) S the interior sine solve (S the orthonormal
    2-D DST-I, applied as X -> S X S with S = sine_matrix(n), by the
    two-sided products of sine_basis) and U the interior neighbours of the
    boundary nodes, this applies the Woodbury inverse of
    P^-1 + U diag(d) U^T:

        P2 r = P r - P U C^-1 U^T P r,    C = diag(1/d) + U^T P U,

    the capacitance-matrix method of Buzbee, Dorr, George and Golub (SIAM
    J. Numer. Anal. 8, 1971). C is SPD of size 4(n-1). d is one positive
    number, since gamma1 lies in the frame: ClampedPlateHat.preconditioner
    passes its own ring weight d = 2 b beta1/h^4. Then C splits: take each
    side's values in the 1-D sine basis, and the sums and differences of
    opposite sides. Since the 1-D modes s_k at the first and the last
    interior node differ by the sign (-1)^k (k counted from 0), the x-side
    sum (difference) meets only even (odd) k, the y-side ones only even
    (odd) l, and C is block diagonal with one block per pair of parities:
    unknowns a_l (x-sides) and b_k (y-sides),

        C_block = (1/d) I + 2 [[diag(sum_k W s_k^2), (W s_k s_l)^T],
                               [W s_k s_l,           diag(sum_l W s_l^2)]]

    over the k and l of the block's parities, W = 1/symbol: a block is
    [[diag(da), B^T], [B, diag(db)]] with B = 2 W s_k s_l. The four
    blocks, of size about n each, are stacked, padded with the identity to
    the even-mode count ke, and inverted once by _quasi_definite_inverse,
    the routine of FrameThermalSolver's capacitance: the diagonal x-side
    part first, then the half-size Schur complement
    S = diag(db) - B diag(da)^-1 B^T from its Cholesky factor
    (_spd_inverse). A ring weight d that is not positive and finite, or a
    block that is not positive definite, raises SolverError.

    apply_hat maps sine coefficients to sine coefficients (the
    parity-blocked mode order of sine_basis, which symbol shares) and makes
    no transform and no triangular solve: a division by symbol, four thin
    products with the mode values at the first interior node that write
    the ring values into one (4, 2, ke) array, a row of two halves per
    block (ke the number of even modes, the shorter odd half zero-padded),
    one batched product with the four padded inverses (one matrix-vector
    product per block), and the rank-four correction as one (m x 4)(4 x m)
    product.

    apply_hat accepts a larger symbol s >= symbol and keeps the capacitance
    of the construction symbol. The result stays SPD: with P_s <= P,
    C >= diag(1/d) + U^T P_s U =: C_s, so P_s - P_s U C^-1 U^T P_s is at
    least the Woodbury inverse of P_s^-1 + U diag(d) U^T, which is SPD.
    """

    def __init__(self, domain: Domain, symbol: np.ndarray, d: float):
        if not 0.0 < d < math.inf:
            raise SolverError("ring weight d must be positive and finite")
        n = domain.n
        m = n - 1
        inv_d = 1.0 / d
        self.symbol = symbol
        # the 1-D sine modes at the first interior node, split by parity
        s0 = sine_basis(n).b[0]
        ke = m - m // 2
        parity = (slice(0, ke), slice(ke, m))
        ends = np.zeros((2, m))
        for row, par in zip(ends, parity):
            row[par] = s0[par]
        # the rank-four correction is [ends; y]^T [x; ends] with the x-side
        # and the y-side solutions x and y, the factor 2 folded into ends
        self._ends = ends
        self._left = np.empty((4, m))
        self._right = np.empty((4, m))
        self._left[:2] = self._right[2:] = 2.0 * ends
        # block b = 2 pk + pl holds a_l (x-sides, l of parity pl) in
        # _ring[b, 0] and b_k (y-sides, k of parity pk) in _ring[b, 1],
        # each padded to ke, and C^-1 in _cinv[b] padded alike; the padding
        # of _ring is zero, that of C the identity
        self._ring = np.zeros((4, 2, ke))
        cap = np.zeros((4, 2 * ke, 2 * ke))
        np.einsum("bii->bi", cap)[...] = 1.0
        for c, (kk, ll) in zip(cap, itertools.product(parity, repeat=2)):
            wb, sk, sl = 1.0 / symbol[kk, ll], s0[kk], s0[ll]
            # C = [[diag(da), B^T], [B, diag(db)]], B = 2 W s_k s_l
            nb, na = wb.shape
            diag = np.einsum("ii->i", c)
            diag[:na] = inv_d + (2.0 * sk * sk) @ wb
            diag[ke:ke + nb] = inv_d + wb @ (2.0 * sl * sl)
            c[ke:ke + nb, :na] = wb * np.outer(2.0 * sk, sl)
            c[:na, ke:ke + nb] = c[ke:ke + nb, :na].T
        self._cinv = _quasi_definite_inverse(cap, ke, 2 * ke,
                                             "plate preconditioner")

    def apply_hat(self, r_hat: np.ndarray,
                  symbol: np.ndarray | None = None) -> np.ndarray:
        """P2 on the sine coefficients r_hat of interior values, with the
        sine part taken at symbol (the construction symbol unless given);
        returns the sine coefficients of the result."""
        ends, ring, left, right = self._ends, self._ring, self._left, \
            self._right
        ke = ring.shape[2]
        ko = len(r_hat) - ke
        sym = self.symbol if symbol is None else symbol
        pr = r_hat / sym
        # U^T P r in the split sine coordinates, each scaled by 1/sqrt(2):
        # the rows of ends pick the even and the odd modes of the first
        # interior node; the x-sides per parity of l, the y-sides per parity
        # of k, each written to the two blocks that read it
        np.matmul(ends, pr[:, :ke], out=ring[0::2, 0])
        np.matmul(ends, pr[:, ke:], out=ring[1::2, 0, :ko])
        np.matmul(ends, pr[:ke].T, out=ring[0:2, 1])
        np.matmul(ends, pr[ke:].T, out=ring[2:4, 1, :ko])
        z = np.matmul(self._cinv, ring.reshape(4, -1, 1)).reshape(4, 2, ke)
        right[:2, :ke] = z[0::2, 0]
        right[:2, ke:] = z[1::2, 0, :ko]
        left[2:, :ke] = z[0:2, 1]
        left[2:, ke:] = z[2:4, 1, :ko]
        # P r - P U C^-1 U^T P r: the sine coefficients of U z are a
        # rank-four sum of outer products, scaled back by sqrt(2)^2
        coeff = left.T @ right
        np.subtract(r_hat, coeff, out=coeff)
        coeff /= sym
        return coeff


class ClampedPlateHat:
    """Mass and bending of the clamped transmission plate on the interior
    sine coefficients p^ = S p S of a clamped p (S orthonormal, modes in the
    parity-blocked order of sine_basis): for a mass scale a and a bending
    scale b, S (a rho p + b A p) S with A = biharmonic_transmission is

        sigma p^ + d (V p^ + p^ V) + S C(p) S,

    - sigma = a rho1 + b beta1 lambda^2 (self.diagonal, a number for
      b = 0), lambda (self.lam) the sine symbol of the Dirichlet
      -Laplacian;
    - d = 2 b beta1/h^4 and V = s_0 s_0^T + s_m s_m^T, s_0 and s_m the rows
      of S at the first and the last interior node: the term that the
      clamped reflection ghost adds on the first interior ring (see
      ClampedSinePreconditioner);
    - C(p) = a (rho2 - rho1)(w2/h^2) p + b (beta2 - beta1) L^T (w2 L p)/h^2,
      the region contrast, skipped when zero (_contrast_hat).

    The time stepper's reduced operator takes a = 2/dt and b = dt/2, the
    plate part of its right side a = 2/dt, b = 0 on p and a = 0, b = -1 on
    u, the stationary Jacobian a = 0 and b = 1. No transform, no grid
    array. preconditioner() builds the plate's ClampedSinePreconditioner.
    """

    def __init__(self, domain: Domain, params: PhysParams, mass: float,
                 bending: float):
        n, h2 = domain.n, domain.h * domain.h
        lo, hi = domain.lo_idx, domain.hi_idx
        sine = sine_basis(n)
        lam = self.lam = dirichlet_sine_eigenvalues(domain)
        self.diagonal = (mass * params.rho1 + bending * params.beta1 * lam**2
                         if bending != 0.0 else mass * params.rho1)
        self._scales = (domain, params, mass, bending)
        d = self._d = 2.0 * bending * params.beta1 / h2**2
        self._ring = None
        if d != 0.0:
            # the ring term d (V p^ + p^ V) = [d s; s p^T]^T [s p^; d s], s
            # the two rows of S, as one product of (4, m) factors
            ring = sine.b[[0, -1]]
            left, right = np.empty((4, n - 1)), np.empty((4, n - 1))
            left[:2] = right[2:] = d * ring
            self._ring = (ring, left, right)
        self._box_rows = sine.b[lo - 1:hi]
        self._contrast = None
        if (mass * (params.rho2 - params.rho1) != 0.0
                or bending * (params.beta2 - params.beta1) != 0.0):
            w2 = domain.w2[lo:hi + 1, lo:hi + 1]
            first, last = max(lo - 1, 1), min(hi + 1, n - 1)
            rows = sine.b[first - 1:last]
            self._contrast = (
                slice(first - lo + 1, last - lo + 2),
                mass * (params.rho2 - params.rho1) * w2 / h2,
                -bending * (params.beta2 - params.beta1) * w2 / h2**2,
                np.ascontiguousarray(rows.T), rows)

    def preconditioner(self) -> ClampedSinePreconditioner:
        """The ClampedSinePreconditioner of this plate: the sine symbol
        a rho_bar + b beta_bar lambda^2, area-weighted mean coefficients
        standing in for the piecewise ones, and the ring weight d; exact for
        equal coefficients in the two regions. It has no term for the
        region contrast. SolverError unless d is positive and finite
        (bending b > 0, and no overflow), or when a capacitance block is not
        positive definite (the shared _quasi_definite_inverse)."""
        domain, params, mass, bending = self._scales
        area1, area2 = float(np.sum(domain.w1)), float(np.sum(domain.w2))
        rho_bar = params.rho1 * area1 + params.rho2 * area2
        beta_bar = params.beta1 * area1 + params.beta2 * area2
        return ClampedSinePreconditioner(
            domain, mass * rho_bar + bending * beta_bar * self.lam**2,
            self._d)

    def accumulate(self, p_hat: np.ndarray, out: np.ndarray,
                   diagonal: np.ndarray | None = None) -> np.ndarray:
        """out += the operator on p_hat, with diagonal in place of sigma
        when given; the diagonal, the ring (skipped at bending 0) and the
        contrast are added in that order. Returns out."""
        out += (self.diagonal if diagonal is None else diagonal) * p_hat
        if self._ring is not None:
            ring, left, right = self._ring
            np.matmul(ring, p_hat, out=right[:2])
            np.matmul(ring, p_hat.T, out=left[2:])
            out += np.matmul(left.T, right)
        if self._contrast is not None:
            out += self._contrast_hat(p_hat)
        return out

    def _contrast_hat(self, p_hat):
        """Sine coefficients of the region contrast C(p). w2 confines it to
        the inner box, nodes lo..hi, which does not reach gamma1: L^T there
        is the plain 5-point sum, and C(p) lives on the box grown by one
        node, whose interior rows of S take it to sine coefficients. The
        box values of p and of lap p = -S_b (lambda p^) S_b^T come from the
        box rows S_b, and the bending weight carries the minus sign."""
        grown, mass, bend, rows_t, rows = self._contrast
        sb = self._box_rows
        q = bend * np.matmul(np.matmul(sb, self.lam * p_hat), sb.T)
        c = np.zeros((len(q) + 2, len(q) + 2))
        inner = c[1:-1, 1:-1]
        np.multiply(q, -4.0, out=inner)
        c[:-2, 1:-1] += q
        c[2:, 1:-1] += q
        c[1:-1, :-2] += q
        c[1:-1, 2:] += q
        inner += mass * np.matmul(np.matmul(sb, p_hat), sb.T)
        return np.matmul(np.matmul(rows_t, c[grown, grown]), rows)


def dirichlet_inverse(domain: Domain, f) -> np.ndarray:
    """Solve lap(w) = f with w = 0 on the outer boundary.

    The 5-point Dirichlet Laplacian on interior nodes is diagonal in the
    discrete sine basis, so one sine_solve (two two-sided products with the
    cached DST-I matrix and a division by the cached eigenvalue grid) gives
    w to round-off. Values of f on the outer boundary are ignored. Raises
    SolverError when the result is not finite, which a non-finite f causes.
    The observable row stops at the sine coefficients of w instead: this is
    kept for the tests and for perfbench, as sine_solve is.
    """
    fv = np.asarray(f, dtype=float)
    w = np.zeros_like(fv)
    w[1:-1, 1:-1] = sine_solve(domain, -fv[1:-1, 1:-1],
                               dirichlet_sine_eigenvalues(domain))
    if not np.all(np.isfinite(w)):
        raise SolverError("Dirichlet inverse is not finite (non-finite "
                          "source)")
    return w
