"""Shared builders for the test suite.

The constructions here are deliberately independent of the library's own
normal-form machinery: matrices with prescribed spectral structure are built
from first principles (h-unitary realification, canonical blocks assembled
before conjugation) so that round-trip tests have a trusted reference.
"""

import numpy as np
import pytest

from sympindex import NormalFormBlock, omega_matrix, symplectic_residual


def unit_jordan_real(phi: float, m: int) -> np.ndarray:
    """Real symplectic 2m x 2m with one unit Jordan chain of length m at
    exp(i phi).

    Construction: solve g* h g = h for a nondegenerate Hermitian h with
    g = exp(i phi) Id + N the complex Jordan block, realify C^m to R^{2m}
    with the symplectic form Im<.,.>_h, and change to a Darboux basis.
    """
    lam = np.exp(1j * phi)
    g = lam * np.eye(m) + np.diag(np.ones(m - 1), 1)

    def realify_entry(mat):
        return np.concatenate([mat.real.ravel(), mat.imag.ravel()])

    # real-linear system: g* h g - h = 0 and h - h* = 0
    L = np.zeros((4 * m * m, 2 * m * m))
    for k in range(m * m):
        for part in (0, 1):
            E = np.zeros((m, m), dtype=complex)
            E.flat[k] = 1.0 if part == 0 else 1j
            L[: 2 * m * m, part * m * m + k] = realify_entry(
                g.conj().T @ E @ g - E)
            L[2 * m * m:, part * m * m + k] = realify_entry(E - E.conj().T)
    _, sv, vh = np.linalg.svd(L)
    null_dim = int(np.sum(sv < 1e-10))
    assert null_dim >= 1
    c = vh[-1]
    h = (c[: m * m] + 1j * c[m * m:]).reshape(m, m)
    h = 0.5 * (h + h.conj().T)
    assert np.linalg.norm(g.conj().T @ h @ g - h) < 1e-9
    assert np.min(np.abs(np.linalg.eigvalsh(h))) > 1e-6

    def cvec(x):
        return x[:m] + 1j * x[m:]

    # realified action and symplectic form omega(u, v) = Im <u, v>_h
    W = np.zeros((2 * m, 2 * m))
    G = np.zeros((2 * m, 2 * m))
    basis_vecs = np.eye(2 * m)
    for j in range(2 * m):
        zj = cvec(basis_vecs[:, j])
        gz = g @ zj
        G[:m, j] = gz.real
        G[m:, j] = gz.imag
        for i in range(2 * m):
            W[i, j] = np.imag(np.vdot(cvec(basis_vecs[:, i]), h @ zj))
    assert np.linalg.norm(G.T @ W @ G - W) < 1e-9

    # Darboux basis: columns C with C.T W C = Omega0
    cols_e, cols_f = [], []
    avail = np.eye(2 * m)
    for _ in range(m):
        u = avail[:, 0]
        pairings = avail.T @ W @ u
        jbest = int(np.argmax(np.abs(pairings)))
        v = avail[:, jbest] / (u @ W @ avail[:, jbest])
        scale = np.sqrt(np.linalg.norm(v) / np.linalg.norm(u))
        cols_e.append(u * scale)
        cols_f.append(v / scale)
        constraints = np.vstack([u @ W, v @ W]) @ avail
        _, sv2, vh2 = np.linalg.svd(constraints)
        avail = avail @ vh2[2:].T if avail.shape[1] > 2 else np.zeros((2 * m, 0))
    C = np.column_stack(cols_e + cols_f)
    assert np.linalg.norm(C.T @ W @ C - omega_matrix(m)) < 1e-8
    A = np.linalg.solve(C, G @ C)
    assert symplectic_residual(A) < 1e-9
    return A


def rotation(phi: float) -> np.ndarray:
    c, s = np.cos(phi), np.sin(phi)
    return np.array([[c, -s], [s, c]])


def krein_degenerate_rotation(phi: float) -> np.ndarray:
    """Rotation conjugated by diag(k, 1/k), k = 2^16.

    The eigenvalues stay exact, but the Krein form of the unit eigenvector
    shrinks to about 5e-10, below the default tol_form.
    """
    k = 2.0 ** 16
    return np.diag([k, 1 / k]) @ rotation(phi) @ np.diag([1 / k, k])


def random_canonical_blocks(rng: np.random.Generator, n_total: int):
    """A random multiset of payload-free canonical blocks of half-dim n_total."""
    blocks = []
    left = n_total
    while left > 0:
        kind = rng.integers(0, 5)
        if kind == 0:
            order = int(rng.integers(1, min(left, 2) + 1))
            lam = float(rng.uniform(1.3, 2.5)) * (1 if rng.random() < 0.5 else -1)
            blocks.append(NormalFormBlock(
                case="OffCircleReal", size=2 * order, lambda_param=(lam,),
                jordan_order=order, d=0))
            left -= order
        elif kind == 1 and left >= 2:
            r = float(rng.uniform(1.3, 2.2))
            phi = float(rng.uniform(0.3, 2.7))
            blocks.append(NormalFormBlock(
                case="OffCircleComplex", size=4, lambda_param=(r, phi),
                jordan_order=1, d=0))
            left -= 2
        elif kind == 2:
            order = int(rng.integers(1, min(left, 2) + 1))
            lam = 1.0 if rng.random() < 0.5 else -1.0
            d = int(rng.choice([-1, 1]))
            blocks.append(NormalFormBlock(
                case="PlusMinusOne", size=2 * order, lambda_param=(lam,),
                jordan_order=order, d=d))
            left -= order
        elif kind == 3:
            lam = 1.0 if rng.random() < 0.5 else -1.0
            blocks.append(NormalFormBlock(
                case="PlusMinusOne", size=2, lambda_param=(lam,),
                jordan_order=1, d=0))
            left -= 1
        else:
            phi = float(rng.uniform(0.25, 2.9))
            if rng.random() < 0.5:
                phi = -phi
            blocks.append(NormalFormBlock(
                case="UnitNonRealOdd", size=2, lambda_param=(phi,),
                jordan_order=1, d=None))
            left -= 1
    return blocks


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)
