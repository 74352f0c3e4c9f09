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
interior ring. ClampedPlateHat applies the clamped plate's mass and bending
on sine coefficients.

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
from scipy.linalg import cho_factor, eigh_tridiagonal
from scipy.linalg.blas import dtrsv

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


def biharmonic_transmission(domain: Domain, u: np.ndarray, params: PhysParams,
                            coeff=None) -> np.ndarray:
    """Operator of the bending form a(u,p) = sum_regions beta <lap u, lap p>.

    Returns the pointwise strong form on free nodes (zero on gamma1); the
    interface flux conditions hold weakly through the beta-weighted form.
    """
    if coeff is None:
        coeff = params.bending_coeff(domain)
    h2 = domain.h * domain.h
    q = coeff * laplacian_clamped(domain, u)
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
    (edge weights ce_h, ce_v): the gradient part of thermal_form."""
    dax = a[1:, :] - a[:-1, :]
    dbx = b[1:, :] - b[:-1, :] if b is not a else dax
    day = a[:, 1:] - a[:, :-1]
    dby = b[:, 1:] - b[:, :-1] if b is not a else day
    return float(np.vdot(domain.ce_h * dax, dbx)
                 + np.vdot(domain.ce_v * day, dby))


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
    problem symmetric. G holds the symmetric modes at even and the
    antisymmetric ones at odd columns, each family by ascending tau, with
    exact parity (ParityBasis). The two families interlace, so that is the
    ascending order of tau but for pairs that agree to rounding (the two
    end modes of a large lam_h), and mode 0 is the lowest: the constant
    for lam_h = 0.
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
    tau_sym, q_sym = eigh_tridiagonal(d_sym, e_sym)
    tau_anti, q_anti = eigh_tridiagonal(d_anti, e_anti)
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
    in closed form: with psi = E0^T phi, xi = C0^-1 psi and
    sigma0 = C0^-1 E0^T M0^-1 B, the coefficient of phi in theta is
    gamma = (phi^T B - psi^T sigma0) / (mu_00 + psi^T xi) and
    sigma = sigma0 + gamma xi. Nothing large enters, for any mu_00 >= 0.

    C0 is built one pair of interface sides at a time and Cholesky factored
    once. A solve is three parts: project, one two-sided product G^T B G
    with G (ParityBasis, size n+1, modes parity-blocked, in the order of
    self.tau and self.basis.b); solve_projected, which takes G^T B G
    however it was formed and returns the coefficients Y of
    theta = G Y G^T after two matrix-vector products per side, two
    triangular solves and a rank-four correction of G^T B G / mu; and
    expand, a second product from Y back to the grid.

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
        self._r = 1.0 / mu
        self._w = np.where(domain.theta_free, domain.w1, 0.0)
        self._free = domain.theta_free.astype(float)
        # rows of G at the interface: the two x-sides (lo|hi, j) for j in
        # lo..hi, the two y-sides (i, lo|hi) for i in lo+1..hi-1
        self._ge = np.ascontiguousarray(g[[lo, hi]].T)
        self._gj = g[lo:hi + 1]
        self._gi = g[lo + 1:hi]
        self._chol = self._capacitance()
        psi = np.concatenate((np.outer(self._ge[0], self._gj[:, 0]).ravel(),
                              np.outer(self._ge[0], self._gi[:, 0]).ravel()))
        self._xi = self._solve_c(psi)
        self._denom = mu00 + float(psi @ self._xi)
        if not (math.isfinite(self._denom) and self._denom > 0.0):
            raise SolverError("thermal solver: lowest mode not finite and "
                              "positive")

    def _capacitance(self):
        """Cholesky factor of C0 = E0^T M0^-1 E0, interface nodes ordered
        x-side lo, x-side hi, y-side lo, y-side hi."""
        r, gj, gi = self._r, self._gj, self._gi
        ge = self._ge.T
        # x-sides a and b: sum_kl G_ak G_bk r_kl G_jl G_j'l; the y-sides
        # alike with the roles of k and l swapped (r is symmetric)
        xx = [[(gj * ((ga * gb) @ r)) @ gj.T for gb in ge] for ga in ge]
        yy = [[(gi * ((ga * gb) @ r)) @ gi.T for gb in ge] for ga in ge]
        # x-side a, node (a, j), with y-side b, node (i, b)
        xr = [(gj * gb) @ r for gb in ge]
        xy = [[xr[b] @ (gi * ga).T for b in range(2)] for ga in ge]
        c = np.block([
            [xx[0][0], xx[0][1], xy[0][0], xy[0][1]],
            [xx[1][0], xx[1][1], xy[1][0], xy[1][1]],
            [xy[0][0].T, xy[1][0].T, yy[0][0], yy[0][1]],
            [xy[0][1].T, xy[1][1].T, yy[1][0], yy[1][1]],
        ])
        if not np.all(np.isfinite(c)):
            raise SolverError("thermal solver: capacitance matrix is not "
                              "finite")
        try:
            return cho_factor(c, lower=True, overwrite_a=True,
                              check_finite=False)[0]
        except LinAlgError as exc:
            raise SolverError("thermal solver: capacitance matrix is not "
                              f"positive definite ({exc})") from exc

    def _solve_c(self, v):
        # two BLAS level-2 triangular solves
        return dtrsv(self._chol, dtrsv(self._chol, v, lower=1), lower=1,
                     trans=1)

    def __call__(self, rhs: np.ndarray) -> np.ndarray:
        """theta on the free temperature dofs, zero elsewhere; rhs is read
        only on the free dofs."""
        return self.expand(self.solve_projected(self.project(rhs)))

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
        """Coefficients Y of theta = G Y G^T (see __call__), which vanishes
        on the interface and the inner plate up to rounding, from the
        projected right side y = G^T B G (project); y is overwritten with
        Y."""
        r, ge, gj, gi = self._r, self._ge, self._gj, self._gi
        beta = y[0, 0]
        y *= r
        # E0^T M0^-1 B: per pair of opposite sides, y times their two rows
        # of G, then the rows of G along the sides
        v = np.concatenate(((gj @ (y.T @ ge)).T.ravel(),
                            (gi @ (y @ ge)).T.ravel()))
        sigma = self._solve_c(v)
        gamma = (beta - float(self._xi @ v)) / self._denom
        sigma += gamma * self._xi
        sx = sigma[:2 * len(gj)].reshape(2, -1)
        sy = sigma[2 * len(gj):].reshape(2, -1)
        # G^T E0 sigma G, a sum of four outer products
        corr = np.hstack((ge, gi.T @ sy.T)) @ np.vstack((sx @ gj, ge.T))
        corr *= r
        y -= corr
        y[0, 0] = gamma
        return y


# ---------------------------------------------------------------------------
# thermoelastic coupling (exactly skew-adjoint pair)

def coupling_to_plate(domain: Domain, theta: np.ndarray,
                      params: PhysParams) -> np.ndarray:
    """Weak form of mu*lap(theta) acting on the plate equation: defined so
    <C theta, p>_Omega = mu * sum(w1 * theta * lap p) for clamped p."""
    h2 = domain.h * domain.h
    q = params.mu * domain.w1 * theta
    out = laplacian_clamped_transpose(domain, q) / h2
    out[domain.gamma1] = 0.0
    return out


def coupling_to_heat(domain: Domain, ut: np.ndarray,
                     params: PhysParams) -> np.ndarray:
    """mu*lap(u_t) restricted to the frame temperature dofs; the exact
    negative adjoint of coupling_to_plate, which is what cancels the
    coupling in the discrete energy identity."""
    out = params.mu * laplacian_clamped(domain, ut)
    out[~domain.theta_free] = 0.0
    return out


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
        r -= alpha * ap
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
    J. Numer. Anal. 8, 1971). C is SPD of size 4(n-1). The boundary weight
    must be uniform on the non-corner boundary nodes (a bending coefficient
    of the frame is), so d is one number. Then C splits: take each side's
    values in the 1-D sine basis, and the sums and differences of opposite
    sides. Since the 1-D modes s_k at the first and the last interior node
    differ by the sign (-1)^k (k counted from 0), the x-side sum
    (difference) meets only even (odd) k, the y-side ones only even (odd)
    l, and C is block diagonal with one block per pair of parities:
    unknowns a_l (x-sides) and b_k (y-sides),

        C_block = (1/d) I + 2 [[diag(sum_k W s_k^2), (W s_k s_l)^T],
                               [W s_k s_l,           diag(sum_l W s_l^2)]]

    over the k and l of the block's parities, W = 1/symbol. The four
    blocks, of size about n each, are Cholesky-factored once. apply_hat
    maps sine coefficients to sine coefficients (the parity-blocked mode
    order of sine_basis, which symbol shares) and makes no transform: a
    division by symbol, eight thin products with the mode values at the
    first interior node, four pairs of small triangular solves and a
    rank-four correction.

    apply_hat accepts a larger symbol s >= symbol and keeps the capacitance
    of the construction symbol. The result stays SPD: with P_s <= P,
    C >= diag(1/d) + U^T P_s U =: C_s, so P_s - P_s U C^-1 U^T P_s is at
    least the Woodbury inverse of P_s^-1 + U diag(d) U^T, which is SPD.
    """

    def __init__(self, domain: Domain, symbol: np.ndarray,
                 weight: np.ndarray):
        n, h = domain.n, domain.h
        m = n - 1
        edge = np.concatenate((weight[0, 1:-1], weight[n, 1:-1],
                               weight[1:-1, 0], weight[1:-1, n]))
        if not (np.min(edge) > 0.0
                and np.max(edge) - np.min(edge) <= 1e-12 * np.max(edge)):
            raise ValueError("boundary weight must be positive and uniform")
        inv_d = h**6 / (4.0 * float(np.mean(edge)))
        self.symbol = symbol
        w = 1.0 / symbol
        # the 1-D sine modes at the first interior node, split by parity
        s0 = sine_basis(n).b[0]
        ke = m - m // 2
        parity = (slice(0, ke), slice(ke, m))
        self._ends = np.zeros((2, m))
        for row, par in zip(self._ends, parity):
            row[par] = s0[par]
        # block (pk, pl): a_l at ux[pk, l] and b_k at uy[pl, k] in the
        # stacked right-hand side (ux, uy) of apply_hat
        self._blocks = []
        for pk, kk in enumerate(parity):
            for pl, ll in enumerate(parity):
                wb = w[kk, ll]
                sk, sl = s0[kk], s0[ll]
                na, nb = wb.shape[1], wb.shape[0]
                c = np.zeros((na + nb, na + nb), order="F")
                c[np.diag_indices(na + nb)] = inv_d + 2.0 * np.concatenate(
                    ((sk * sk) @ wb, wb @ (sl * sl)))
                c[na:, :na] = 2.0 * wb * np.outer(sk, sl)
                idx = np.concatenate((pk * m + np.arange(m)[ll],
                                      (2 + pl) * m + np.arange(m)[kk]))
                self._blocks.append(
                    (idx, cho_factor(c, lower=True, overwrite_a=True,
                                     check_finite=False)[0]))

    def apply_hat(self, r_hat: np.ndarray,
                  symbol: np.ndarray | None = None) -> np.ndarray:
        """P2 on the sine coefficients r_hat of interior values, with the
        sine part taken at symbol (the construction symbol unless given);
        returns the sine coefficients of the result."""
        ends = self._ends
        sym = self.symbol if symbol is None else symbol
        pr = r_hat / sym
        # U^T P r in the split sine coordinates, each scaled by 1/sqrt(2):
        # rows of ends pick the even and the odd modes of the first
        # interior node
        u = np.concatenate((ends @ pr, ends @ pr.T)).ravel()
        z = np.empty_like(u)
        for idx, chol in self._blocks:
            # two BLAS level-2 triangular solves: for one right-hand side
            # they are cheaper than LAPACK's potrs
            z[idx] = dtrsv(chol, dtrsv(chol, u[idx], lower=1), lower=1,
                           trans=1)
        # P r - P U C^-1 U^T P r: the sine coefficients of U z are a
        # rank-four sum of outer products, scaled back by sqrt(2)^2
        z = z.reshape(4, -1)
        coeff = r_hat - 2.0 * (np.concatenate((ends.T, z[2:].T), axis=1)
                               @ np.concatenate((z[:2], ends)))
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
    stationary Jacobian a = 0 and b = 1. No transform, no grid array.
    """

    def __init__(self, domain: Domain, params: PhysParams, mass: float,
                 bending: float):
        n, h2 = domain.n, domain.h * domain.h
        lo, hi = domain.lo_idx, domain.hi_idx
        sine = sine_basis(n)
        lam = self.lam = dirichlet_sine_eigenvalues(domain)
        self.diagonal = mass * params.rho1 + bending * params.beta1 * lam**2
        self._ring_scale = 2.0 * bending * params.beta1 / h2**2
        self._ring = sine.b[[0, -1]]
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

    def accumulate(self, p_hat: np.ndarray, out: np.ndarray,
                   diagonal: np.ndarray | None = None) -> np.ndarray:
        """out += the operator on p_hat, with diagonal in place of sigma
        when given; the diagonal, the ring and the contrast are added in
        that order. Returns out."""
        out += (self.diagonal if diagonal is None else diagonal) * p_hat
        ring = self._ring
        out += self._ring_scale * (ring.T @ (ring @ p_hat)
                                   + (p_hat @ ring.T) @ ring)
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
