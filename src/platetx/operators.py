"""Matrix-free discrete operators on the transmission grid.

The clamped Laplacian uses reflection ghosts, which makes it self-adjoint on
clamped fields; the bending operator is its weighted normal form, so symmetry
and positivity of the energy form are structural. The thermal operator is
that of an edge-based gradient form plus a Robin line term, thermal_form
(exactly symmetric), whose interior rows coincide with the 5-point stencil
and whose boundary rows reproduce the Robin ghost elimination; the form is
also the one source of the dissipation. Its implicit solve,
FrameThermalSolver, is direct: the weighted thermal matrix extends to a
separable matrix on the whole square, which two-sided products with the 1-D
Robin eigenbasis invert, and a capacitance matrix on the interface nodes
imposes the Dirichlet condition there. The clamped plate's preconditioner,
ClampedSinePreconditioner, uses the same capacitance technique on the first
interior ring. Both capacitance matrices split into four blocks by the
parity of the modes, in sums and differences of values at mirror nodes
(the thermal one for an inner box centred on the square); each keeps the
explicit inverses of its blocks, from LAPACK dpotrf and dpotri,
zero-padded in one array, and applies them as one batched matrix-vector
product. The thermal one borders the block of the lowest mode with that
mode's coefficient.
ClampedPlateHat applies the clamped plate's mass and bending on sine
coefficients and builds the plate's ClampedSinePreconditioner;
FrameThermalSolver applies the coupling of the thermal solve with the plate
on the same coefficients. Between them they hold both halves of the time
stepper's reduced operator.

The Dirichlet 5-point Laplacian is diagonal in the discrete sine basis. A
2-D sine transform of interior values X is the product S X S with S the
orthonormal DST-I matrix (sine_matrix), which is symmetric and its own
inverse, so the forward and the inverse transform are the same two-sided
product. S and the eigenvalue grid are built once per grid size.

Both bases are persymmetric: every column is symmetric or antisymmetric
about the grid centre. ParityBasis makes their two-sided products B^T X B
and B Y B^T, with the modes in parity-blocked order (symmetric first); from
FOLD_MIN_SIZE on it folds each side by parity into two GEMMs of half the
size, which halves the flops. In that order the change of basis from Robin
to sine coefficients, RobinToSine, is block diagonal, on all interior nodes
and on any set of nodes symmetric about the centre.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import LinAlgError
from scipy.linalg.lapack import dpotrf, dpotri, dstevd

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
    the mirror of the inner one.

    Rows 1..n-1 are one 5-point sum over the flattened array, whose west and
    east terms wrap to the adjacent row at columns 0 and n; the boundary
    nodes, those two columns included, are then rewritten from their
    neighbours gathered by _boundary_stencil. Every node sums
    (north + south + west + east) - 4 centre in that order, the order of
    the sum over a ghost array."""
    n = u.shape[0] - 1
    m = n + 1
    f = u.ravel()
    out = np.empty(u.shape)
    o = out.ravel()
    c = slice(m, f.size - m)
    np.add(f[:-2 * m], f[2 * m:], out=o[c])
    o[c] += f[m - 1:f.size - m - 1]
    o[c] += f[m + 1:f.size - m + 1]
    o[c] -= 4.0 * f[c]
    idx = _boundary_stencil(n)
    v = f[idx]
    o[idx[0]] = v[1] + v[2] + v[3] + v[4] - 4.0 * v[0]
    out /= domain.h * domain.h
    return out


def laplacian_clamped_transpose(domain: Domain, r: np.ndarray) -> np.ndarray:
    """Exact transpose of laplacian_clamped as a matrix on nodal values.

    Each node takes -4 r of its own and r of every grid neighbour, as one
    sum over the flattened array whose west and east terms wrap to the
    adjacent row at columns 0 and n; those two columns are then rewritten
    without the wrapped term. The ghost that a boundary node reads finally
    returns that node's r to the mirror node one row or column in."""
    n = r.shape[0] - 1
    m = n + 1
    f = r.ravel()
    out = np.multiply(r, -4.0)
    o = out.ravel()
    o[:-m] += f[m:]
    o[m:] += f[:-m]
    o[:-1] += f[1:]
    o[1:] += f[:-1]
    # e picks the two edge lines 0 and n, g their mirrors 1 and n-1
    e, g = slice(None, None, n), slice(1, None, n - 2)
    col = -4.0 * r[:, e]
    col[:-1] += r[1:, e]
    col[1:] += r[:-1, e]
    col += r[:, g]
    out[:, e] = col
    out[g, :] += r[e, :]
    out[:, g] += r[:, e]
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


def central_differences(u: np.ndarray) -> np.ndarray:
    """u(next node) - u(previous node) along x and along y at every node,
    as one (2, n+1, n+1) array, with clamped reflection ghosts: on gamma1
    the component normal to the boundary reads the mirror of its inner
    neighbour on both sides, so it is 0.0.

    Each component is one difference over the flattened array; the y
    differences wrap to the adjacent row at columns 0 and n, which are
    then set to 0.0."""
    n = u.shape[0] - 1
    m = n + 1
    f = u.ravel()
    d = np.empty((2,) + u.shape)
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


def robin_eigenbasis(n: int, lam_h: float):
    """Eigenpairs (tau, G) of the 1-D Robin problem of FrameThermalSolver
    on N = n+1 nodes: tau and Q those of the symmetric tridiagonal matrix
    A^-1/2 T A^-1/2, A = diag(1/2, 1, ..., 1, 1/2) and T = D^T D + lam_h E,
    and G = A^-1/2 Q.

    The matrix is persymmetric (the same Robin term at both ends), so each
    eigenvector is symmetric or antisymmetric about the centre, and each
    family solves a tridiagonal problem on the nodes up to the centre:
    N//2 nodes for the antisymmetric modes, N - N//2 for the symmetric
    ones. The mirror couples the last of those nodes to itself for even N
    (+- the coupling on the diagonal); for odd N the centre node couples
    to both halves, and its coupling is scaled by sqrt 2 to keep the
    problem symmetric. Each problem is solved by LAPACK dstevd, the
    driver that scipy's eigh_tridiagonal picks for it, called directly
    (n >= 3; LinAlgError when it does not converge). G holds the
    symmetric modes at even and the antisymmetric ones at odd columns,
    each family by ascending tau, with exact parity (ParityBasis). The two
    families interlace, so that is the ascending order of tau but for
    pairs that agree to rounding (the two end modes of a large lam_h), and
    mode 0 is the lowest: the constant for lam_h = 0.
    """
    size = n + 1
    half = size // 2
    k = size - half
    r2 = math.sqrt(2.0)
    s = np.full(size, 1.0)  # A^-1/2
    s[[0, -1]] = r2
    diag = np.full(size, 2.0)
    diag[[0, -1]] = 1.0 + lam_h
    diag *= s * s
    off = -s[:-1] * s[1:]
    d_sym, e_sym = diag[:k].copy(), off[:k - 1].copy()
    d_anti, e_anti = diag[:half].copy(), off[:half - 1]
    if size % 2:
        e_sym[-1] *= r2
    else:
        d_sym[-1] += off[half - 1]
        d_anti[-1] -= off[half - 1]
    tau_sym, q_sym, info_sym = dstevd(d_sym, e_sym)
    tau_anti, q_anti, info_anti = dstevd(d_anti, e_anti)
    if info_sym or info_anti:
        raise LinAlgError("Robin eigenproblem did not converge")
    tau = np.empty(size)
    tau[0::2], tau[1::2] = tau_sym, tau_anti
    # the nodes up to the centre carry 1/sqrt 2 of a mode, the centre of
    # odd N all of a symmetric one and nothing of an antisymmetric one
    scale = s[:k] / r2
    scale[half:] = 1.0
    g = np.zeros((size, size))
    g[:k, 0::2] = scale[:, None] * q_sym
    g[:half, 1::2] = scale[:half, None] * q_anti
    g[::-1][:half, 0::2] = g[:half, 0::2]
    g[::-1][:half, 1::2] = -g[:half, 1::2]
    return tau, g


def _mirror_rows(rows: np.ndarray, ke: int):
    """The rows of a persymmetric basis (modes parity-blocked, ke even
    ones) at nodes symmetric about the grid centre, rotated to the scaled
    sums and differences of mirror nodes: the sums (and a centre node
    alone) meet only the even modes, the differences only the odd ones.
    Returns the rotated rows, sums first, and the number of sums."""
    m = len(rows)
    half = m // 2
    out = np.zeros(rows.shape)
    out[:m - half, :ke] = rows[:m - half, :ke]
    out[:half, :ke] *= math.sqrt(2.0)
    out[m - half:, ke:] = math.sqrt(2.0) * rows[:half, ke:]
    return out, m - half


class FrameThermalSolver:
    """Exact solve of (c I + beta0 L) theta = rhs on the free temperature
    dofs, with c = 2 rho0/dt and L the operator of thermal_form with respect
    to the frame weights w1 (theta = 0 on gamma0).

    Multiplied by the frame weights w1, the system is the restriction of a
    separable matrix on the whole square,

        M = c h^2 A(x)A + beta0 (T(x)A + A(x)T),

    A = diag(1/2, 1, ..., 1, 1/2) and T = D^T D + lam h E (D the 1-D
    difference matrix, E the two end nodes): every free frame node sees
    only full cells and edges, so its row of M is its row of the frame
    matrix. With the eigenpairs (tau, Q) of A^-1/2 T A^-1/2 and
    G = A^-1/2 Q (robin_eigenbasis), the inverse on a nodal grid B is

        M^-1 B = G ((G^T B G) / mu) G^T,
        mu_kl = c h^2 + beta0 (tau_k + tau_l).

    The interface condition theta = 0 on gamma0 comes from a capacitance
    matrix on the 4(hi - lo) interface nodes E0 (Buzbee, Dorr, George and
    Golub, SIAM J. Numer. Anal. 8, 1971): theta = M^-1 (B - E0 sigma) with
    E0^T theta = 0. The interface separates the frame from the inner plate,
    so theta vanishes on the inner nodes as well.

    For lam = 0 the lowest mode phi = g_0 (x) g_0 of M is the constant, and
    mu_00 = c h^2 goes to zero with rho0/dt although the frame problem
    stays well posed; its term in E0^T M^-1 E0 would swamp the others. So
    the capacitance matrix C0 = E0^T M0^-1 E0 is built from M0^-1, the
    inverse without that mode, and the mode is restored by Sherman-Morrison
    in closed form. With psi = E0^T phi, xi = C0^-1 psi and
    d = mu_00 + psi^T xi, the interface values v = E0^T M0^-1 B and
    beta = phi^T B give sigma and the coefficient gamma of phi in theta by
    one product with a bordered inverse, that of [[C0, -psi], [psi^T,
    mu_00]]:

        [sigma; gamma] = [[C0^-1 - xi xi^T/d, xi/d], [-xi^T/d, 1/d]] [v; beta].

    Nothing large enters, for any mu_00 >= 0.

    C0 is taken in orthogonal coordinates of the interface values: the sum
    and the difference of the two x-sides (rows lo and hi) and of the two
    y-sides (columns lo and hi), each over sqrt 2, and along each side the
    sums and differences over sqrt 2 of mirror nodes (j and n - j), a
    centre node alone. For a box centred on n/2 (lo + hi = n) the rows of
    G at mirror nodes agree up to the sign (-1)^k, bit for bit
    (robin_eigenbasis), so a side sum meets only the even modes of its
    normal index (k for the x-sides, l for the y-sides) and a side
    difference only the odd ones, and the mirror sums and differences
    along a side split the other index alike. So C0 splits into four
    blocks, one per pair of parities (a of k, b of l), each of about
    hi - lo unknowns. With e_a = sqrt 2 G[lo] on the modes of parity a,
    J_b and I_a the rotated rows of G along the x-sides on the modes l of
    parity b and along the y-sides on the modes k of parity a, and
    r = 1/mu (r_00 = 0), block (a, b) is

        [[J_b diag(rho) J_b^T,               (J_b o e_b) r_ab^T (I_a o e_a)^T],
         [(I_a o e_a) r_ab (J_b o e_b)^T,    I_a diag(rho') I_a^T]],

    r_ab the quadrant of r on those modes, rho_l = sum_k e_a,k^2 r_kl and
    rho'_k = sum_l r_kl e_b,l^2; psi lies in block (0, 0) alone. For any
    other box the coordinates are the interface values themselves, with
    the rows G[lo] and G[hi] as the two sides, and C0 is one block, built
    by the same products for each pair of sides.

    Each block is inverted once (dpotrf, SolverError when it is not
    positive definite, then dpotri) and stored zero-padded in one array of
    the blocks' inverses, (0, 0) bordered as above. A solve
    is three parts: project, one two-sided product G^T B G with G
    (ParityBasis, size n+1, modes parity-blocked, in the order of self.tau
    and self.basis.b); solve_projected, which takes G^T B G however it was
    formed and returns the coefficients Y of theta = G Y G^T after four
    thin products with the rotated rows for the interface values, one
    gather into the padded blocks, one batched matrix-vector product and
    a rank-four correction of G^T B G / mu, one (N x 4)(4 x N) product of
    preallocated factors; and expand, a second product from Y back to the
    grid. It makes no triangular solve.

    The solver also applies the coupling with the plate on the interior
    sine coefficients p^ = S p S of a clamped p (S = sine_basis(n).b, modes
    parity-blocked), through Phi = S^T G[1:n] and its rows Psi = S_b^T G_b
    at the nodes lo..hi of the closed inner box (RobinToSine, block
    diagonal by parity for a box centred on n/2). The heat source of a
    velocity p is mu L p on the free temperature nodes, L =
    laplacian_clamped, and a temperature theta enters the plate equation as
    C theta = L^T (mu w1 theta)/h^2 (zero on gamma1), so that
    h^2 <C theta, p> = sum w1 theta mu L p: the pair cancels in the
    discrete energy identity. On the free temperature nodes w1 = h^2 A(x)A
    and T G = A G diag(tau), so on interior rows
    L^T (w1 G Y G^T) = -G (tau_k + tau_l) Y G^T; on the box, strictly
    interior, L is the Dirichlet Laplacian, diagonal in sine modes with
    symbol -lambda. The two halves are therefore closed forms:

        heat_source_hat(p^) = project(mu L p)
            = mu [h^2 Psi^T (lambda p^) Psi - (tau + tau) Phi^T p^ Phi],
        couple_hat(y) = S C expand(solve_projected(y)) S
            = -(mu/h^2) Phi ((tau + tau) Y) Phi^T,

    Y the Robin coefficients that solve_projected returns. self.solves
    counts the calls of solve_projected, the thermal solves, whichever path
    makes them.

    Raises SolverError at construction when the spectrum or the capacitance
    matrix is not finite or not positive definite.
    """

    def __init__(self, domain: Domain, params: PhysParams, dt: float):
        h = domain.h
        lo, hi = domain.lo_idx, domain.hi_idx
        tau, g = robin_eigenbasis(domain.n, params.lam * h)
        self.basis = ParityBasis(g)
        tau = self.tau = tau[parity_order(len(tau))]
        g = self.basis.b
        mu = (2.0 * params.rho0 / dt) * h * h + params.beta0 * (
            tau[:, None] + tau[None, :])
        mu00 = mu[0, 0]
        mu[0, 0] = math.inf  # the lowest mode is handled apart
        if not (np.all(np.isfinite(mu.ravel()[1:])) and np.min(mu) > 0.0):
            raise SolverError("thermal solver: eigenvalues not finite and "
                              "positive")
        r = self._r = 1.0 / mu
        self._w = np.where(domain.theta_free, domain.w1, 0.0)
        self._free = domain.theta_free.astype(float)
        # the rows of G at the interface in the coordinates of the class
        # docstring: the two sides e (over k for the x-sides, l for the
        # y-sides), the rows along the x-sides j (lo..hi) and along the
        # y-sides i (lo+1..hi-1); a block lists its modes k and l and its
        # x-side and y-side unknowns as pairs (side, rows of j or i)
        size = len(g)
        if lo + hi == domain.n:
            ke = size - size // 2
            par = (slice(0, ke), slice(ke, size))
            e = np.zeros((2, size))
            e[0, :ke], e[1, ke:] = g[lo, :ke], g[lo, ke:]
            e *= math.sqrt(2.0)
            j, nj = _mirror_rows(g[lo:hi + 1], ke)
            # the y-sides' nodes are the x-sides' but the two ends
            i, ni = np.concatenate((j[1:nj], j[nj + 1:])), nj - 1
            rows_j = (slice(0, nj), slice(nj, len(j)))
            rows_i = (slice(0, ni), slice(ni, len(i)))
            blocks = [(par[a], par[b], [(a, rows_j[b])], [(b, rows_i[a])])
                      for a in (0, 1) for b in (0, 1)]
        else:
            e, j, i = g[[lo, hi]], g[lo:hi + 1], g[lo + 1:hi]
            every = slice(None)
            blocks = [(every, every, [(0, every), (1, every)],
                       [(0, every), (1, every)])]
        self._e, self._j, self._i = e, j, i
        self._j_t = np.ascontiguousarray(j.T)
        self._i_t = np.ascontiguousarray(i.T)
        # the interface values are laid out as [x-sides (2, len(j)),
        # y-sides (2, len(i)), beta, 0]; where lists the positions of each
        # block's unknowns there, and of beta last in block 0, and kb the
        # size of the largest block with beta
        nx, ny = 2 * len(j), 2 * len(i)
        at_x = np.arange(nx).reshape(2, -1)
        at_y = np.arange(nx, nx + ny).reshape(2, -1)
        where = [np.concatenate([at_x[s, rows] for s, rows in xs]
                                + [at_y[t, rows] for t, rows in ys])
                 for _, _, xs, ys in blocks]
        sizes = [len(pos) for pos in where]
        where[0] = np.append(where[0], nx + ny)
        kb = max(sizes[0] + 1, max(sizes))
        # C0 block by block (class docstring), the lower triangles, with
        # rho[s, t] = (e_s o e_t) r (r is symmetric): for x-sides s, t of
        # rows a, b (over l) (a * rho[s, t]) b^T, for y-sides alike over k,
        # and for y-side s of rows a, x-side t of rows b
        # ((a o e_t) r) (b o e_s)^T, each on the block's modes
        rho = (e[:, None] * e) @ r
        caps = np.zeros((len(blocks), kb, kb))
        for c, (ks, ls, xs, ys) in zip(caps, blocks):
            rq = r[ks, ls]
            parts = ([(s, j[rows, ls]) for s, rows in xs]
                     + [(t, i[rows, ks]) for t, rows in ys])
            at = 0
            for u, (s, a) in enumerate(parts):
                bt = 0
                for v, (t, b) in enumerate(parts[:u + 1]):
                    if u < len(xs):
                        left, right = a * rho[s, t, ls], b
                    elif v >= len(xs):
                        left, right = a * rho[s, t, ks], b
                    else:
                        left, right = (a * e[t, ks]) @ rq, b * e[s, ls]
                    np.matmul(left, right.T,
                              out=c[at:at + len(a), bt:bt + len(b)])
                    bt += len(b)
                at += len(a)
        if not np.all(np.isfinite(caps)):
            raise SolverError("thermal solver: capacitance matrix is not "
                              "finite")
        # psi in block 0, whose modes start at (0, 0)
        _, _, xs, ys = blocks[0]
        psi = np.concatenate([e[s, 0] * j[rows, 0] for s, rows in xs]
                             + [i[rows, 0] * e[t, 0] for t, rows in ys])
        m0 = sizes[0]
        cinv = self._cinv = np.zeros((len(blocks), kb, kb))
        for inv, c, m in zip(cinv, caps, sizes):
            chol, info = dpotrf(c[:m, :m], lower=1)
            if info != 0:
                raise SolverError("thermal solver: capacitance matrix is not "
                                  f"positive definite (minor {info})")
            # dpotri fills the lower triangle; dpotrf zeroed the upper
            inv[:m, :m] = dpotri(chol, lower=1, overwrite_c=1)[0]
        # each inverse is its lower triangle plus its transpose, the
        # diagonal halved
        cinv += cinv.transpose(0, 2, 1)
        diag = np.arange(kb)
        cinv[:, diag, diag] *= 0.5
        # block 0 bordered (class docstring): its padded inverse minus the
        # outer product of [xi; 1] and [xi; -1], over d
        xi = np.append(cinv[0, :m0, :m0] @ psi, 1.0)
        denom = mu00 + float(psi @ xi[:m0])
        if not (math.isfinite(denom) and denom > 0.0):
            raise SolverError("thermal solver: lowest mode not finite and "
                              "positive")
        cinv[0, :m0 + 1, :m0 + 1] -= np.outer(xi / denom,
                                              np.append(xi[:m0], -1.0))
        # solve_projected's work arrays: the rows e times y and y^T, the
        # interface values with beta and a zero, the gather of each padded
        # block from them (the padding reads the zero) and the positions of
        # the values in the padded blocks, and the factors [e; sigma_y i]^T
        # [sigma_x j; e] of the rank-four correction and its product
        self._edge = np.empty((4, size))
        self._v = np.zeros(nx + ny + 2)
        self._vx = self._v[:nx].reshape(2, -1)
        self._vy = self._v[nx:nx + ny].reshape(2, -1)
        self._gather = np.full((len(blocks), kb, 1), nx + ny + 1)
        for gather, pos in zip(self._gather, where):
            gather[:len(pos), 0] = pos
        scatter = np.empty(nx + ny + 2, dtype=np.intp)
        scatter[self._gather.ravel()] = np.arange(self._gather.size)
        self._scatter = scatter[:-1]
        self._left = np.empty((4, size))
        self._right = np.empty((4, size))
        self._left[:2] = self._right[2:] = e
        self._corr = np.empty((size, size))
        self.solves = 0
        # the coupling with the plate (class docstring): the weights on the
        # Robin coefficients, and Phi and Psi
        tau2 = tau[:, None] + tau[None, :]
        self._heat_hat = -params.mu * tau2
        self._heat_box = (params.mu * (h * h)) * dirichlet_sine_eigenvalues(
            domain)
        self._couple = (-params.mu / (h * h)) * tau2
        sine = sine_basis(domain.n).b
        self._robin_to_sine = RobinToSine(sine, g[1:-1])
        self._box_to_sine = RobinToSine(sine[lo - 1:hi], g[lo:hi + 1],
                                        centred=lo + hi == domain.n)

    def expand(self, y: np.ndarray) -> np.ndarray:
        """theta = G Y G^T on the free temperature dofs, zero elsewhere,
        from the coefficients Y that solve_projected returns."""
        out = self.basis.expand(y)
        out *= self._free
        return out

    def project(self, rhs: np.ndarray) -> np.ndarray:
        """G^T B G, B = w1 rhs on the free dofs and zero elsewhere: the
        right side of solve_projected."""
        return self.basis.project(self._w * rhs)

    def solve_projected(self, y: np.ndarray) -> np.ndarray:
        """Coefficients Y of theta = G Y G^T (expand), which vanishes
        on the interface and the inner plate up to rounding, from the
        projected right side y = G^T B G (project); y is overwritten with
        Y. Counted in self.solves."""
        self.solves += 1
        r, edge, left, right = self._r, self._edge, self._left, self._right
        v = self._v
        v[-2] = y[0, 0]
        y *= r
        # E0^T M0^-1 B in the rotated coordinates: the side rows times y
        # (x-sides) or y^T (y-sides), then the rows along the sides
        np.matmul(self._e, y, out=edge[:2])
        np.matmul(self._e, y.T, out=edge[2:])
        np.matmul(edge[:2], self._j_t, out=self._vx)
        np.matmul(edge[2:], self._i_t, out=self._vy)
        # [sigma; gamma] from the bordered and the plain block inverses
        z = np.matmul(self._cinv, v[self._gather])
        sigma = z.ravel()[self._scatter]
        nx = self._vx.size
        # G^T E0 sigma G, a sum of four outer products as one product
        np.matmul(sigma[:nx].reshape(2, -1), self._j, out=right[:2])
        np.matmul(sigma[nx:-1].reshape(2, -1), self._i, out=left[2:])
        corr = np.matmul(left.T, right, out=self._corr)
        corr *= r
        y -= corr
        y[0, 0] = sigma[-1]
        return y

    def heat_source_hat(self, p_hat: np.ndarray) -> np.ndarray:
        """project of the heat source mu lap p, from the sine coefficients
        p_hat of a clamped p, in closed form (class docstring): the free
        temperature nodes are the square without the closed inner box, so
        the whole square's -mu (tau + tau) Phi^T p^ Phi loses the box's
        -mu h^2 Psi^T (lambda p^) Psi."""
        y = self._robin_to_sine.transposed(p_hat)
        y *= self._heat_hat
        y += self._box_to_sine.transposed(self._heat_box * p_hat)
        return y

    def couple_hat(self, y: np.ndarray) -> np.ndarray:
        """Sine coefficients of C H^-1 rhs, C the coupling of the temperature
        into the plate equation (class docstring), from the projected right
        side y = project(rhs), which it overwrites: the solve stops at the
        Robin coefficients Y, which take the coupling weights
        -(mu/h^2)(tau + tau) and one product with Phi."""
        th = self.solve_projected(y)
        th *= self._couple
        return self._robin_to_sine(th)


class RobinToSine:
    """Two-sided products with Phi = S^T G, S and G the rows of the sine
    basis (sine_basis(n).b) and of the Robin basis of FrameThermalSolver
    (its basis.b) at the same nodes, both with parity-blocked columns:

        __call__(Y) = Phi Y Phi^T,    transposed(X) = Phi^T X Phi.

    On all interior nodes (S whole, G[1:n]) __call__ takes the
    coefficients Y of a field G Y G^T in the Robin basis to the sine
    coefficients S^T X S of its interior values, and transposed takes the
    sine coefficients of an interior field X to its Robin coefficients
    G^T X G. On the nodes lo..hi of the inner box (S[lo-1:hi], G[lo:hi+1])
    transposed(X) is the part G^T X G that the box contributes.

    When the nodes are symmetric about the centre n/2 (all interior nodes,
    or a box with lo + hi = n: centred), the columns of both are symmetric
    or antisymmetric about it there, so a symmetric column of one basis is
    orthogonal to an antisymmetric column of the other and Phi is block
    diagonal: Phi_e = S_e^T G_e on the symmetric modes, Phi_o = S_o^T G_o
    on the antisymmetric ones. Only the two blocks are built, and a product
    is four GEMMs each half the size of a dense one in one dimension, half
    the flops of a dense two-sided product at every n. Otherwise Phi is
    dense and so are its products.
    """

    def __init__(self, s: np.ndarray, g: np.ndarray, centred: bool = True):
        if not centred:
            self._phi = s.T @ g
            return
        self._phi = None
        ks = s.shape[1] - s.shape[1] // 2
        kg = g.shape[1] - g.shape[1] // 2
        self._e = s[:, :ks].T @ g[:, :kg]
        self._o = s[:, ks:].T @ g[:, kg:]
        self._e_t = np.ascontiguousarray(self._e.T)
        self._o_t = np.ascontiguousarray(self._o.T)

    def __call__(self, y: np.ndarray) -> np.ndarray:
        """Phi Y Phi^T."""
        if self._phi is not None:
            return self._phi @ y @ self._phi.T
        fe, fo = self._e, self._o
        ks, kg = fe.shape
        m = ks + len(fo)
        z = np.empty((m, len(y)))
        np.matmul(fe, y[:kg], out=z[:ks])
        np.matmul(fo, y[kg:], out=z[ks:])
        out = np.empty((m, m))
        np.matmul(z[:, :kg], self._e_t, out=out[:, :ks])
        np.matmul(z[:, kg:], self._o_t, out=out[:, ks:])
        return out

    def transposed(self, x: np.ndarray) -> np.ndarray:
        """Phi^T X Phi."""
        if self._phi is not None:
            return self._phi.T @ x @ self._phi
        fe, fo = self._e, self._o
        ks, kg = fe.shape
        size = kg + fo.shape[1]
        z = np.empty((size, len(x)))
        np.matmul(self._e_t, x[:ks], out=z[:kg])
        np.matmul(self._o_t, x[ks:], out=z[kg:])
        out = np.empty((size, size))
        np.matmul(z[:, :ks], fe, out=out[:, :kg])
        np.matmul(z[:, ks:], fo, out=out[:, kg:])
        return out


# ---------------------------------------------------------------------------
# generic preconditioned CG

@dataclass
class LinearOperator:
    """A matrix-free symmetric operator with its inner product."""

    apply: callable
    dot: callable


def cg_solve(op: LinearOperator, rhs: np.ndarray, tol: float = 1e-10,
             max_iter: int = 10000, precond=None, x0=None, r0=None):
    """Preconditioned conjugate gradients.

    Returns (x, iterations, r), r the final recursive residual. The start
    is x0 (zero unless given) with residual r0, which is read only with x0;
    without r0 it is formed as rhs - op.apply(x0). The residual tolerance
    is relative to |rhs| and is tested before each preconditioner apply,
    so a solve of k iterations preconditions k times. Raises SolverError
    with the best iterate on non-convergence, and at once, without an
    iterate, when |rhs| or a residual norm is not finite.
    """
    dot = op.dot
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
        r = rhs - op.apply(x) if r0 is None else r0.copy()
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
        if p is None:
            p = z.copy()
        else:
            p *= rz_new / rz
            p += z
        rz = rz_new
        ap = op.apply(p)
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

    over the k and l of the block's parities, W = 1/symbol. The four
    blocks, of size about n each, are inverted once, through the Schur
    complement: a block is C = [[diag(da), B^T], [B, diag(db)]], so
    S = diag(db) - B diag(da)^-1 B^T is half its size, and with
    G = S^-1 B diag(da)^-1

        C^-1 = [[diag(da)^-1 + (B diag(da)^-1)^T G, -G^T], [-G, S^-1]]:

    one product for S, its Cholesky factor (LinAlgError when the block is
    not positive definite), S^-1 by LAPACK dpotri, symmetrised, and two
    more half-size products. At n=128 on one core, dpotrf and dpotri on
    the four whole blocks take 0.59 ms against 0.17 ms for the factors
    alone; this way the whole construction takes 0.39 ms (0.26 ms when it
    only factored the blocks), and the leaner set-up of Domain and
    FrameThermalSolver repays the difference, so a stepper's set-up does
    not grow.

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
            raise ValueError("ring weight d must be positive and finite")
        n = domain.n
        m = n - 1
        inv_d = 1.0 / d
        self.symbol = symbol
        w = 1.0 / symbol
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
        # is zero
        self._ring = np.zeros((4, 2, ke))
        self._cinv = np.empty((4, 2 * ke, 2 * ke))
        for pk, kk in enumerate(parity):
            for pl, ll in enumerate(parity):
                wb, sk, sl = w[kk, ll], s0[kk], s0[ll]
                # C = [[diag(da), B^T], [B, diag(db)]], B = 2 W s_k s_l
                da = inv_d + (2.0 * sk * sk) @ wb
                db = inv_d + wb @ (2.0 * sl * sl)
                b = wb * np.outer(2.0 * sk, sl)
                na, nb = len(da), len(db)
                if not np.min(da) > 0.0:
                    raise LinAlgError("capacitance block is not positive "
                                      "definite")
                # C^-1 through the Schur complement S (class docstring);
                # b_da = -B diag(da)^-1, g = -G
                b_da = b / -da
                schur = b_da @ b.T
                schur[np.diag_indices(nb)] += db
                chol, info = dpotrf(schur, lower=1, overwrite_a=1)
                if info != 0:
                    raise LinAlgError("capacitance block is not positive "
                                      f"definite (minor {info})")
                inv = self._cinv[2 * pk + pl]
                inv[na:ke] = inv[ke + nb:] = 0.0
                inv[:, na:ke] = inv[:, ke + nb:] = 0.0
                # dpotri fills the lower triangle; dpotrf zeroed the upper
                s_low = dpotri(chol, lower=1, overwrite_c=1)[0]
                s_inv = np.add(s_low, s_low.T,
                               out=inv[ke:ke + nb, ke:ke + nb])
                s_inv[np.diag_indices(nb)] *= 0.5
                g = s_inv @ b_da
                inv[:na, ke:ke + nb] = g.T
                inv[ke:ke + nb, :na] = g
                top = inv[:na, :na]
                np.matmul(b_da.T, g, out=top)
                top[np.diag_indices(na)] += 1.0 / da

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

    - sigma = a rho1 + b beta1 lambda^2 (self.diagonal), lambda (self.lam)
      the sine symbol of the Dirichlet -Laplacian;
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
        self.diagonal = mass * params.rho1 + bending * params.beta1 * lam**2
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
        region contrast. ValueError unless d > 0 (bending b > 0)."""
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
            out += left.T @ right
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
        q = bend * (sb @ (self.lam * p_hat) @ sb.T)
        c = np.zeros((len(q) + 2, len(q) + 2))
        inner = c[1:-1, 1:-1]
        np.multiply(q, -4.0, out=inner)
        c[:-2, 1:-1] += q
        c[2:, 1:-1] += q
        c[1:-1, :-2] += q
        c[1:-1, 2:] += q
        inner += mass * (sb @ p_hat @ sb.T)
        return rows_t @ c[grown, grown] @ rows


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
