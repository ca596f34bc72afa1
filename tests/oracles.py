"""Independent reference implementations the tests check the package against.

Everything here deliberately avoids the package's own code paths: fidelity
goes through scipy's sqrtm instead of singular values, the partial trace is
an explicit index loop, matrix exponentials come from scipy, and the
purification-overlap maximum is found variationally with a generic
optimizer rather than in closed form, and the overlap path is walked with a
Schur-form matrix power at every point instead of its scalar closed form,
whose magnitude is checked against the d-term sum it stands for.
"""

import math

import numpy as np
import scipy.linalg as sla
import scipy.optimize


def lower_bound_one_to_two(f: float, phi: float) -> float:
    """The 1 -> 2 bound written out directly: f*phi - f^2*sqrt(1-f^2 phi^2)/sqrt(1-f^4).

    An independent route to cloning.lower_bound(f, phi, 1, 2), for f < 1.
    """
    if phi <= f:
        return 0.0
    return f * phi - f ** 2 * math.sqrt(1.0 - f ** 2 * phi ** 2) / math.sqrt(1.0 - f ** 4)


def lower_bound_mp(f: float, phi: float, n_in: int, n_out: int, digits: int = 50):
    """cloning.lower_bound's closed form at ``digits`` decimal digits (an mpf),
    for 0 < f < 1 and phi > f^(n_out - n_in)."""
    import mpmath

    with mpmath.workdps(digits):
        f, phi = mpmath.mpf(f), mpmath.mpf(phi)
        return (f ** n_in * phi
                - f ** n_out * mpmath.sqrt(1 - f ** (2 * n_in) * phi ** 2)
                / mpmath.sqrt(1 - f ** (2 * n_out)))


def pure_clone_sines_mp(psi1: np.ndarray, psi2: np.ndarray, v: np.ndarray,
                        digits: int = 40) -> list[float]:
    """sin(delta_i) of the 1 -> 2 cloner v on pure qubit inputs, at ``digits`` digits.

    Input i is |psi_i>|0> (blank ancilla, no environment), its output the
    pure state v|psi_i 0>, its ideal |psi_i psi_i>; the entries of psi_i and v
    are taken as exact, and the output is normalized, since a float64 v is
    unitary only to ~1e-16. sin(delta) = sqrt(1 - |<ideal|output>|^2) loses
    about 16 of the digits, which leaves far more than float64 holds.
    """
    import mpmath

    with mpmath.workdps(digits):
        vm = mpmath.matrix([[mpmath.mpc(complex(x)) for x in row] for row in v])
        sines = []
        for psi in (psi1, psi2):
            x = [mpmath.mpc(complex(c)) for c in psi]
            norm = mpmath.sqrt(sum(abs(c) ** 2 for c in x))
            x = [c / norm for c in x]
            inp = mpmath.matrix([c * b for c in x for b in (1, 0)])
            ideal = [a * b for a in x for b in x]
            out = vm * inp
            ov = sum(mpmath.conj(ideal[k]) * out[k] for k in range(len(ideal)))
            out_norm2 = sum(abs(out[k]) ** 2 for k in range(len(ideal)))
            sines.append(float(mpmath.sqrt(1 - abs(ov) ** 2 / out_norm2)))
    return sines


def line_angle_mp(x: np.ndarray, y: np.ndarray, digits: int = 50) -> float:
    """The angle arccos(|<x|y>| / (|x| |y|)) between the lines of two complex
    vectors, taken exactly as given (not renormalized in floats), at
    ``digits`` decimal digits."""
    import mpmath

    with mpmath.workdps(digits):
        xs, ys = ([mpmath.mpc(complex(c)) for c in v] for v in (x, y))
        ov = abs(mpmath.fsum(mpmath.conj(a) * b for a, b in zip(xs, ys)))
        norms = mpmath.sqrt(mpmath.fsum(abs(a) ** 2 for a in xs)
                            * mpmath.fsum(abs(b) ** 2 for b in ys))
        return float(mpmath.acos(min(ov / norms, mpmath.mpf(1))))


def fidelity_sqrtm(a: np.ndarray, b: np.ndarray) -> float:
    """(Tr sqrt(sqrt(a) b sqrt(a)))^2 evaluated literally via scipy.sqrtm."""
    s = sla.sqrtm(a)
    inner = sla.sqrtm(s @ b @ s)
    return float(np.real(np.trace(inner))) ** 2


def partial_trace_loop(m: np.ndarray, dims, keep) -> np.ndarray:
    """Partial trace by explicit index loops; keep is a set of positions."""
    dims = [int(x) for x in dims]
    keep = sorted(keep)
    traced = [i for i in range(len(dims)) if i not in keep]
    kd = int(np.prod([dims[i] for i in keep])) if keep else 1
    t = m.reshape(dims + dims)
    out = np.zeros((kd, kd), dtype=complex)
    for row in np.ndindex(*[dims[i] for i in keep]) if keep else [()]:
        for col in np.ndindex(*[dims[i] for i in keep]) if keep else [()]:
            acc = 0.0 + 0.0j
            for tr in np.ndindex(*[dims[i] for i in traced]) if traced else [()]:
                left = [0] * len(dims)
                right = [0] * len(dims)
                for pos, v in zip(keep, row):
                    left[pos] = v
                for pos, v in zip(keep, col):
                    right[pos] = v
                for pos, v in zip(traced, tr):
                    left[pos] = v
                    right[pos] = v
                acc += t[tuple(left) + tuple(right)]
            r = int(np.ravel_multi_index(row, [dims[i] for i in keep])) if keep else 0
            c = int(np.ravel_multi_index(col, [dims[i] for i in keep])) if keep else 0
            out[r, c] = acc
    return out


def naimark_projector(u: np.ndarray, d: int, m: int, a: int) -> np.ndarray:
    """U^dagger (1_d (x) |a><a|) U formed literally: two dense products with
    the Kronecker-built ancilla projector, for the dilation unitary U on
    C^d (x) C^m."""
    anc = np.zeros((m, m), dtype=complex)
    anc[a, a] = 1.0
    return u.conj().T @ np.kron(np.eye(d), anc) @ u


def expm_scipy(h: np.ndarray) -> np.ndarray:
    return sla.expm(1j * h)


def haar_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    g = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    q, r = np.linalg.qr(g)
    rd = np.diagonal(r)
    return q * (rd / np.abs(rd))


def random_density(rng: np.random.Generator, d: int, rank: int) -> np.ndarray:
    g = (rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank)))
    m = g @ g.conj().T
    return m / np.real(np.trace(m))


def _purification(rho: np.ndarray, env_dim: int) -> np.ndarray:
    w, u = np.linalg.eigh(rho)
    w = np.clip(w, 0.0, None)
    d = rho.shape[0]
    y = np.zeros(d * env_dim, dtype=complex)
    for i in range(d):
        y += np.sqrt(w[i]) * np.kron(u[:, i], _basis(env_dim, i))
    return y / np.linalg.norm(y)


def _basis(d: int, i: int) -> np.ndarray:
    e = np.zeros(d, dtype=complex)
    e[i] = 1.0
    return e


def _env_unitary(params: np.ndarray, d: int) -> np.ndarray:
    h = np.zeros((d, d), dtype=complex)
    n_off = d * (d - 1) // 2
    iu = np.triu_indices(d, 1)
    h[iu] = params[d:d + n_off] + 1j * params[d + n_off:]
    h = h + h.conj().T + np.diag(params[:d])
    return sla.expm(1j * h)


def variational_max_overlap(rho1: np.ndarray, rho2: np.ndarray,
                            n_starts: int = 8, seed: int = 0) -> float:
    """max_V |<y1|(1 (x) V)|y2>| over env unitaries, by generic optimization.

    The fidelity definition as maximal purification overlap, evaluated the
    expensive way. env dim equals the system dim, enough for any marginal.
    """
    d = rho1.shape[0]
    y1 = _purification(rho1, d)
    y2 = _purification(rho2, d)
    eye = np.eye(d)
    rng = np.random.default_rng(seed)

    def neg_overlap(params):
        v = _env_unitary(params, d)
        return -abs(np.vdot(y1, np.kron(eye, v) @ y2))

    best = 0.0
    for start in range(n_starts):
        x0 = (np.zeros(d * d) if start == 0
              else rng.uniform(-np.pi, np.pi, d * d))
        res = scipy.optimize.minimize(neg_overlap, x0, method="L-BFGS-B")
        best = max(best, -float(res.fun))
    return best


def schur_power(u: np.ndarray, t: float) -> np.ndarray:
    """u**t on the eigenphase branch (-pi, pi], via the complex Schur form."""
    tri, w = sla.schur(u, output="complex")
    theta = np.angle(np.diagonal(tri))
    theta = np.where(theta <= -np.pi, theta + 2.0 * np.pi, theta)
    return (w * np.exp(1j * float(t) * theta)) @ w.conj().T


def dirichlet_profile(t, d: int) -> np.ndarray:
    """|c_d(t)| = |(1/d) sum_k exp(i (t-1) theta_k)| as the d-term sum, over
    an array of t, with theta_k the phases of the d-th roots of unity on
    (-pi, pi]: the overlap path's magnitude with no closed form taken."""
    theta = 2.0 * np.pi * (np.arange(d) - (d - 1) // 2) / d
    s = np.multiply.outer(np.subtract(t, 1.0), theta)
    return np.abs(np.exp(1j * s).sum(axis=-1)) / d


def _overlap_path(a: np.ndarray, b: np.ndarray):
    """m = a b, the path start V0 = Q C P^dagger and step V0^dagger Vmax."""
    m = a @ b
    p, s, qh = np.linalg.svd(m)
    d = m.shape[0]
    v_max = qh.conj().T @ p.conj().T
    v_zero = qh.conj().T @ np.roll(np.eye(d, dtype=complex), 1, axis=0) @ p.conj().T
    return m, s, v_max, v_zero


def walk_step_phases(a: np.ndarray, b: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Eigenphases of V0^dagger v, ascending, for V0 the overlap path's start."""
    _, _, _, v_zero = _overlap_path(a, b)
    return np.sort(np.angle(np.linalg.eigvals(v_zero.conj().T @ v)))


def schur_path_overlap(a: np.ndarray, b: np.ndarray, t: float) -> float:
    """|Tr(a b V0 step^t)| on the overlap path, with a matrix power."""
    m, _, v_max, v_zero = _overlap_path(a, b)
    return float(abs(np.trace(m @ v_zero @ schur_power(v_zero.conj().T @ v_max, t))))


def schur_walk_target_overlap(a: np.ndarray, b: np.ndarray, phi: float,
                              tol_root: float = 1e-10, samples: int = 64):
    """The purification-overlap walk with a Schur power at every point.

    a and b are sqrt(rho1) and sqrt(rho2). V(t) = V0 (V0^dagger Vmax)^t is
    evaluated as a matrix at each of ``samples`` grid points, which locate
    a sign bracket of |Tr(a b V(t))| - phi, and at each bisection step.
    Returns (v, achieved overlap, path parameter).
    """
    m, s, v_max, v_zero = _overlap_path(a, b)
    sqrt_f = min(float(np.sum(s)), 1.0)
    target = min(max(float(phi), 0.0), sqrt_f)
    if target <= tol_root:
        return v_zero, float(abs(np.trace(m @ v_zero))), 0.0
    if target >= sqrt_f - tol_root:
        return v_max, float(abs(np.trace(m @ v_max))), 1.0
    step = v_zero.conj().T @ v_max

    def walk(t):
        v = v_zero @ schur_power(step, t)
        return v, float(abs(np.trace(m @ v)))

    ts = np.linspace(0.0, 1.0, samples)
    gs = [walk(t)[1] for t in ts]
    for i in range(samples - 1):
        if (gs[i] - target) * (gs[i + 1] - target) <= 0.0:
            lo, g_lo, hi = ts[i], gs[i], ts[i + 1]
            break
    else:
        raise ValueError(f"no bracket found for phi={target}")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        v_mid, g_mid = walk(mid)
        if abs(g_mid - target) <= tol_root:
            break
        if (g_lo - target) * (g_mid - target) <= 0.0:
            hi = mid
        else:
            lo, g_lo = mid, g_mid
    return v_mid, g_mid, float(mid)
