"""Matrix-free discrete operators on the transmission grid.

The clamped Laplacian uses reflection ghosts, which makes it self-adjoint on
clamped fields; the bending operator is its weighted normal form, so symmetry
and positivity of the energy form are structural. The thermal operator is
assembled from an edge-based gradient form (exactly symmetric), whose interior
rows coincide with the 5-point stencil and whose boundary rows reproduce the
Robin ghost elimination. Its implicit solve, FrameThermalSolver, is direct:
the weighted thermal matrix extends to a separable matrix on the whole
square, which dense transforms in the 1-D Robin eigenbasis invert, and a
capacitance matrix on the interface nodes imposes the Dirichlet condition
there. The clamped plate's preconditioner, ClampedSinePreconditioner, uses
the same capacitance technique on the first interior ring.
"""

import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import LinAlgError
from scipy.fft import dstn, idstn
from scipy.linalg import cho_factor, eigh_tridiagonal
from scipy.linalg.blas import dtrsv

from .domain import Domain
from .errors import SolverError
from .fields import Field, PhysParams


# ---------------------------------------------------------------------------
# clamped plate stencils

def laplacian_clamped(domain: Domain, u: np.ndarray) -> np.ndarray:
    """5-point Laplacian of a clamped field, evaluated at every node.

    Ghost values are mirror reflections (u_ghost = u_mirror), encoding the
    zero normal derivative of the clamped boundary.
    """
    n, h = domain.n, domain.h
    ue = np.zeros((n + 3, n + 3))
    ue[1:-1, 1:-1] = u
    ue[0, 1:-1] = u[1, :]
    ue[-1, 1:-1] = u[-2, :]
    ue[1:-1, 0] = u[:, 1]
    ue[1:-1, -1] = u[:, -2]
    out = (
        ue[:-2, 1:-1] + ue[2:, 1:-1] + ue[1:-1, :-2] + ue[1:-1, 2:]
        - 4.0 * ue[1:-1, 1:-1]
    )
    out /= h * h
    return out


def laplacian_clamped_transpose(domain: Domain, r: np.ndarray) -> np.ndarray:
    """Exact transpose of laplacian_clamped as a matrix on nodal values."""
    n, h = domain.n, domain.h
    re = np.zeros((n + 3, n + 3))
    re[1:-1, 1:-1] -= 4.0 * r
    re[:-2, 1:-1] += r
    re[2:, 1:-1] += r
    re[1:-1, :-2] += r
    re[1:-1, 2:] += r
    out = re[1:-1, 1:-1].copy()
    out[1, :] += re[0, 1:-1]
    out[-2, :] += re[-1, 1:-1]
    out[:, 1] += re[1:-1, 0]
    out[:, -1 - 1] += re[1:-1, -1]
    out /= h * h
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


def central_gradient(domain: Domain, u: np.ndarray):
    """Central-difference gradient with clamped reflection ghosts."""
    n, h = domain.n, domain.h
    ue = np.zeros((n + 3, n + 3))
    ue[1:-1, 1:-1] = u
    ue[0, 1:-1] = u[1, :]
    ue[-1, 1:-1] = u[-2, :]
    ue[1:-1, 0] = u[:, 1]
    ue[1:-1, -1] = u[:, -2]
    gx = (ue[2:, 1:-1] - ue[:-2, 1:-1]) / (2.0 * h)
    gy = (ue[1:-1, 2:] - ue[1:-1, :-2]) / (2.0 * h)
    return gx, gy


# ---------------------------------------------------------------------------
# thermal operator (mixed Dirichlet / Robin)

def thermal_form(domain: Domain, a: np.ndarray, b: np.ndarray,
                 params: PhysParams) -> float:
    """H^1_D form on the frame: edge-weighted gradient integral plus the
    Robin boundary term lam * line integral over gamma1 (no beta0 factor)."""
    dax = a[1:, :] - a[:-1, :]
    dbx = b[1:, :] - b[:-1, :] if b is not a else dax
    day = a[:, 1:] - a[:, :-1]
    dby = b[:, 1:] - b[:, :-1] if b is not a else day
    grad = float(np.sum(domain.ce_h * dax * dbx) + np.sum(domain.ce_v * day * dby))
    robin = params.lam * float(np.sum(domain.bw * a * b))
    return grad + robin


def thermal_laplacian(domain: Domain, theta: np.ndarray,
                      params: PhysParams) -> np.ndarray:
    """Positive operator of the H^1_D form w.r.t. the frame L^2 weights.

    Interior frame rows are the standard 5-point -Laplacian with Dirichlet
    elimination at gamma0; gamma1 rows carry the Robin ghost.
    """
    out = _thermal_flux(domain, theta)
    out += params.lam * domain.bw * theta
    np.divide(out, domain.w1, out=out, where=domain.w1 > 0)
    out[~domain.theta_free] = 0.0
    return out


def _thermal_flux(domain: Domain, theta: np.ndarray) -> np.ndarray:
    out = np.zeros_like(theta)
    dx = domain.ce_h * (theta[1:, :] - theta[:-1, :])
    out[:-1, :] -= dx
    out[1:, :] += dx
    dy = domain.ce_v * (theta[:, 1:] - theta[:, :-1])
    out[:, :-1] -= dy
    out[:, 1:] += dy
    return out


class FrameThermalSolver:
    """Exact solve of (c I + beta0 L) theta = rhs on the free temperature
    dofs, with c = 2 rho0/dt and L = thermal_laplacian (theta = 0 on gamma0).

    Multiplied by the frame weights w1, the system is the restriction of a
    separable matrix on the whole square,

        M = c h^2 A(x)A + beta0 (T(x)A + A(x)T),

    A = diag(1/2, 1, ..., 1, 1/2) and T = D^T D + lam h E (D the 1-D
    difference matrix, E the two end nodes): every free frame node sees
    only full cells and edges, so its row of M is its row of the frame
    matrix. With the eigenpairs (tau, Q) of A^-1/2 T A^-1/2 and
    G = A^-1/2 Q, the inverse on a nodal grid B is

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
    once; an apply costs four GEMMs of size n+1, two matrix-vector products
    per side, two triangular solves and a rank-four correction of the
    coefficients G^T B G / mu. At n=128 that is about 0.6 ms against 1.2 ms
    for a sparse LU solve of the frame matrix, and the set-up about 4 ms
    against 46 ms for the factorization (1 BLAS thread).

    Raises SolverError at construction when the spectrum or the capacitance
    matrix is not finite or not positive definite.
    """

    def __init__(self, domain: Domain, params: PhysParams, dt: float):
        n, h = domain.n, domain.h
        lo, hi = domain.lo_idx, domain.hi_idx
        # A^-1/2 T A^-1/2 as a symmetric tridiagonal matrix
        s = np.full(n + 1, 1.0)
        s[[0, -1]] = math.sqrt(2.0)
        t_diag = np.full(n + 1, 2.0)
        t_diag[[0, -1]] = 1.0 + params.lam * h
        t_diag *= s * s
        tau, q = eigh_tridiagonal(t_diag, -s[:-1] * s[1:])
        mu = (2.0 * params.rho0 / dt) * h * h + params.beta0 * (
            tau[:, None] + tau[None, :])
        mu00 = mu[0, 0]
        mu[0, 0] = math.inf  # the lowest mode is handled apart
        if not (np.all(np.isfinite(mu.ravel()[1:])) and np.min(mu) > 0.0):
            raise SolverError("thermal solver: eigenvalues not finite and "
                              "positive")
        g = s[:, None] * q
        self._g, self._r = g, 1.0 / mu
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
        g, r, ge, gj, gi = self._g, self._r, self._ge, self._gj, self._gi
        y = g.T @ (self._w * rhs) @ g
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
        out = g @ y @ g.T
        out *= self._free
        return out


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


# ---------------------------------------------------------------------------
# generic preconditioned CG

@dataclass
class LinearOperator:
    """A matrix-free symmetric operator with its inner product."""

    apply: callable
    dot: callable


def cg_solve(op: LinearOperator, rhs: np.ndarray, tol: float = 1e-10,
             max_iter: int = 10000, precond=None, x0=None):
    """Preconditioned conjugate gradients.

    Returns (x, iterations). Residual tolerance is relative to |rhs|; raises
    SolverError with the best iterate on non-convergence, and at once,
    without an iterate, when |rhs| or a residual norm is not finite.
    """
    dot = op.dot
    bnorm = np.sqrt(dot(rhs, rhs))
    if not np.isfinite(bnorm):
        raise SolverError("CG right-hand side is not finite", iterations=0)
    if bnorm == 0.0:
        return np.zeros_like(rhs), 0
    if x0 is None:
        x = np.zeros_like(rhs)
        r = rhs.copy()
    else:
        x = x0.copy()
        r = rhs - op.apply(x)
    z = precond(r) if precond is not None else r
    p = z.copy()
    rz = dot(r, z)
    for k in range(max_iter):
        rnorm = np.sqrt(dot(r, r))
        if not np.isfinite(rnorm):
            raise SolverError(f"CG residual is not finite at iteration {k}",
                              residual=rnorm, iterations=k)
        if rnorm <= tol * bnorm:
            return x, k
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
        z = precond(r) if precond is not None else r
        rz_new = dot(r, z)
        p *= rz_new / rz
        p += z
        rz = rz_new
    rnorm = np.sqrt(dot(r, r))
    raise SolverError(
        f"CG did not converge in {max_iter} iterations "
        f"(relative residual {rnorm / bnorm:.3e})",
        best=x, residual=rnorm / bnorm, iterations=max_iter,
    )


# ---------------------------------------------------------------------------
# Dirichlet Laplacian on the whole square and its inverse

def dirichlet_sine_eigenvalues(domain: Domain) -> np.ndarray:
    """Eigenvalues of the 5-point Dirichlet -Laplacian on interior nodes,
    as an (n-1, n-1) grid matching DST-I ordering."""
    n, h = domain.n, domain.h
    j = np.arange(1, n)
    lam1d = (4.0 / (h * h)) * np.sin(j * np.pi / (2 * n)) ** 2
    return lam1d[:, None] + lam1d[None, :]


def sine_solve(domain: Domain, rhs_interior: np.ndarray,
               symbol: np.ndarray) -> np.ndarray:
    """Diagonal solve in the discrete sine basis (interior nodes)."""
    coeff = dstn(rhs_interior, type=1, norm="ortho")
    coeff /= symbol
    return idstn(coeff, type=1, norm="ortho")


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
    2-D DST-I) and U the interior neighbours of the boundary nodes, this
    applies the Woodbury inverse of P^-1 + U diag(d) U^T:

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
    blocks, of size about n each, are Cholesky-factored once; an apply
    costs one DST pair, like a plain sine solve, plus four pairs of small
    triangular solves.

    __call__ accepts a larger symbol s >= symbol and keeps the capacitance
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
        s0 = np.sqrt(2.0 / n) * np.sin(np.pi * np.arange(1, n) / n)
        parity = (slice(0, m, 2), slice(1, m, 2))
        self._ends = np.zeros((2, m))
        for row, par in zip(self._ends, parity):
            row[par] = s0[par]
        # block (pk, pl): a_l at ux[pk, l] and b_k at uy[pl, k] in the
        # stacked right-hand side (ux, uy) of __call__
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

    def __call__(self, r: np.ndarray, symbol: np.ndarray | None = None):
        """P2 r on interior nodes (zero on gamma1), with the sine part
        taken at symbol (the construction symbol unless given)."""
        ends = self._ends
        sym = self.symbol if symbol is None else symbol
        coeff = dstn(r[1:-1, 1:-1], type=1, norm="ortho")
        pr = coeff / sym
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
        coeff -= 2.0 * (np.concatenate((ends.T, z[2:].T), axis=1)
                        @ np.concatenate((z[:2], ends)))
        coeff /= sym
        out = np.zeros_like(r)
        out[1:-1, 1:-1] = idstn(coeff, type=1, norm="ortho")
        return out


def dirichlet_inverse(domain: Domain, f) -> np.ndarray:
    """Solve lap(w) = f with w = 0 on the outer boundary.

    The 5-point Dirichlet Laplacian on interior nodes is diagonal in the
    discrete sine basis, so one sine_solve gives w to round-off. Values of
    f on the outer boundary are ignored. Raises SolverError when the result
    is not finite, which a non-finite f causes.
    """
    fv = f.values if isinstance(f, Field) else np.asarray(f, dtype=float)
    w = np.zeros_like(fv)
    w[1:-1, 1:-1] = sine_solve(domain, -fv[1:-1, 1:-1],
                               dirichlet_sine_eigenvalues(domain))
    if not np.all(np.isfinite(w)):
        raise SolverError("Dirichlet inverse is not finite (non-finite "
                          "source)")
    return w
