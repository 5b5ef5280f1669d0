import importlib

import numpy as np
import pytest

from sympindex import (DEFAULT_TOL, NormalFormBlock, NormalFormError,
                       NormalFormReport, ParameterError,
                       PerturbationFailureError, assemble, invariants_of,
                       normal_form, random_symplectic, semisimple_perturb,
                       symplectic_residual)
from conftest import random_canonical_blocks, unit_jordan_real

nf = importlib.import_module("sympindex.normal_form")


def conjugate(a, n, seed):
    k = random_symplectic(n, seed=seed, scale=0.3, max_cond=60)
    return k @ a @ np.linalg.inv(k)


def block(case, size, params, order, d=None):
    return NormalFormBlock(case=case, size=size, lambda_param=params,
                           jordan_order=order, d=d)


class TestBlockMatrices:
    def test_all_block_matrices_are_symplectic(self):
        blocks = [
            block("OffCircleReal", 2, (2.0,), 1),
            block("OffCircleReal", 4, (-1.7,), 2),
            block("OffCircleComplex", 4, (1.5, 0.9), 1),
            block("PlusMinusOne", 2, (1.0,), 1, d=1),
            block("PlusMinusOne", 4, (-1.0,), 2, d=-1),
            block("PlusMinusOne", 2, (-1.0,), 1, d=0),
            block("UnitNonRealOdd", 2, (0.8,), 1),
        ]
        for b in blocks:
            assert symplectic_residual(b.matrix()) < 1e-12, b.case

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ParameterError):
            block("OffCircleReal", 2, (1.0,), 1).matrix()
        with pytest.raises(ParameterError):
            block("PlusMinusOne", 2, (1.0,), 1, d=2).matrix()
        with pytest.raises(ParameterError):
            block("PlusMinusOne", 4, (1.0,), 2, d=0).matrix()
        with pytest.raises(ParameterError):
            # defective unit blocks need a realized coupling payload
            block("UnitNonRealEven", 4, (0.8,), 2).matrix()


class TestRoundTrips:
    @pytest.mark.parametrize("lam,order", [(2.0, 1), (-1.8, 1), (2.2, 2),
                                           (-1.5, 2)])
    def test_off_circle_real(self, lam, order):
        b = block("OffCircleReal", 2 * order, (lam,), order)
        a = conjugate(assemble([b]), order, seed=order)
        rep = normal_form(a)
        assert rep.residual < 1e-8
        assert invariants_of(rep) == ((b.case, b.size, order, (round(lam, 4),), None),)

    @pytest.mark.parametrize("r,phi,order", [(1.6, 0.7, 1), (1.4, 2.1, 1),
                                             (1.6, 0.7, 2), (1.4, 2.1, 2)])
    def test_off_circle_complex(self, r, phi, order):
        b = block("OffCircleComplex", 4 * order, (r, phi), order)
        a = conjugate(assemble([b]), 2 * order, seed=5)
        rep = normal_form(a)
        assert rep.residual < 1e-7
        (inv,) = invariants_of(rep)
        assert inv[0] == "OffCircleComplex" and inv[2] == order
        assert inv[3] == (round(r, 4), round(phi, 4))

    @pytest.mark.parametrize("lam,order,d", [(1.0, 1, 1), (1.0, 1, -1),
                                             (-1.0, 2, 1), (1.0, 2, -1),
                                             (-1.0, 1, 0), (1.0, 3, 0)])
    def test_plus_minus_one(self, lam, order, d):
        b = block("PlusMinusOne", 2 * order, (lam,), order, d=d)
        n = order
        a = conjugate(assemble([b]), n, seed=3)
        tol = DEFAULT_TOL.with_overrides(tol_eig=1e-3 if order > 2 else 1e-5)
        rep = normal_form(a, tol)
        assert rep.residual < 1e-6
        assert invariants_of(rep) == (
            ("PlusMinusOne", 2 * order, order, (lam,), d),)

    @pytest.mark.parametrize("phi", [0.9, -1.3, 2.5])
    def test_unit_rotation_keeps_signed_angle(self, phi):
        a = conjugate(assemble([block("UnitNonRealOdd", 2, (phi,), 1)]), 1,
                      seed=8)
        rep = normal_form(a)
        (inv,) = invariants_of(rep)
        assert inv[0] == "UnitNonRealOdd"
        assert inv[3] == (round(phi, 4),)

    @pytest.mark.parametrize("m,phi", [(2, 0.9), (3, -1.3), (4, 0.7)])
    def test_defective_unit_chain(self, m, phi):
        a = unit_jordan_real(phi, m)
        tol = DEFAULT_TOL.with_overrides(tol_eig=1e-3, tol_nf=1e-4)
        rep = normal_form(a, tol)
        assert rep.residual < 1e-4 * (1 + np.linalg.norm(a))
        (inv,) = invariants_of(rep)
        assert inv[0] == ("UnitNonRealEven" if m % 2 == 0 else "UnitNonRealOdd")
        assert inv[2] == m
        # same invariants after conjugation
        rep2 = normal_form(conjugate(a, m, seed=4), tol)
        assert invariants_of(rep2) == invariants_of(rep)

    def test_mixed_block_sets(self, rng):
        for trial in range(6):
            n = int(rng.integers(2, 5))
            blocks = random_canonical_blocks(rng, n)
            a0 = assemble(blocks)
            # defective clusters split ~eps^(1/chain) in floats; cluster wide
            tol = DEFAULT_TOL.with_overrides(tol_eig=1e-3)
            direct = normal_form(a0, tol)
            conj = normal_form(conjugate(a0, n, seed=trial), tol)
            assert invariants_of(direct) == invariants_of(conj)
            assert conj.residual < 1e-6 * (1 + np.linalg.norm(a0))
            assert symplectic_residual(conj.basis) < 1e-7

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_repeated_unit_rotations(self, m):
        # once a rotation block is split off, the rest of the eigenspace of
        # e^{1.5i} has dimension m - 1 and pairs with the block in rank 1
        rot = [block("UnitNonRealOdd", 2, (1.5,), 1)] * m
        a = conjugate(assemble(rot + [block("UnitNonRealOdd", 2, (-1.5,), 1)]),
                      m + 1, seed=6)
        rep = normal_form(a)
        assert rep.residual < 1e-8
        assert invariants_of(rep) == (
            ("UnitNonRealOdd", 2, 1, (-1.5,), None),) + (
            ("UnitNonRealOdd", 2, 1, (1.5,), None),) * m

    def test_basis_actually_conjugates(self):
        blocks = [block("OffCircleComplex", 4, (1.5, 0.9), 1),
                  block("UnitNonRealOdd", 2, (0.6,), 1)]
        a = conjugate(assemble(blocks), 3, seed=12)
        rep = normal_form(a)
        recon = rep.basis @ rep.normal_matrix() @ np.linalg.inv(rep.basis)
        assert np.linalg.norm(recon - a) < 1e-6 * (1 + np.linalg.norm(a))


class TestSemisimplePerturb:
    def test_identity_becomes_distinct(self):
        from sympindex import semisimple_perturb

        a = semisimple_perturb(np.eye(4), eps=1e-6, seed=0)
        ev = np.linalg.eigvals(a)
        gaps = [abs(x - y) for i, x in enumerate(ev) for y in ev[i + 1:]]
        assert min(gaps) > 0.05 * 1e-6
        assert symplectic_residual(a) < 1e-8

    def test_component_sign_is_preserved(self):
        from sympindex import semisimple_perturb

        for a in (np.diag([2.0, -1.0, 0.5, -1.0]), -np.eye(4)):
            sign_before = np.sign(np.linalg.det(a - np.eye(4)))
            ap = semisimple_perturb(a, eps=1e-6, seed=1)
            assert np.sign(np.linalg.det(ap - np.eye(4))) == sign_before

    def test_defective_unit_input(self):
        from sympindex import semisimple_perturb

        a = unit_jordan_real(0.9, 2)
        ap = semisimple_perturb(a, eps=1e-6, seed=0)
        ev = np.linalg.eigvals(ap)
        gaps = [abs(x - y) for i, x in enumerate(ev) for y in ev[i + 1:]]
        assert min(gaps) > 0.05 * 1e-6


class TestRoutes:
    """Which basis feeds a case's one block builder: a simple isolated
    eigenvalue's eigenvector, or else ``generalized_eigenspace``."""

    @staticmethod
    def spy_eigenspaces(monkeypatch):
        calls = []
        inner = nf.generalized_eigenspace

        def wrapped(*args, **kwargs):
            calls.append(args[1])
            return inner(*args, **kwargs)

        monkeypatch.setattr(nf, "generalized_eigenspace", wrapped)
        return calls

    @staticmethod
    def simple_blocks(rng, n):
        """Order-1 blocks of the three semisimple cases, of total half-size
        n, with eigenvalues far apart."""
        angles = iter(rng.permutation([0.4, 0.9, 1.4, 1.9, 2.4, 2.9]))
        radii = iter(rng.permutation([1.5, 2.0, 2.5, 3.0]))
        blocks = []
        while n > 0:
            case = rng.choice(["UnitNonRealOdd", "OffCircleReal",
                               "OffCircleComplex"][:3 if n > 1 else 2])
            sign = rng.choice([-1.0, 1.0])
            if case == "UnitNonRealOdd":
                blocks.append(block(case, 2, (sign * next(angles),), 1))
            elif case == "OffCircleReal":
                blocks.append(block(case, 2, (sign * next(radii),), 1))
            else:
                blocks.append(block(case, 4, (next(radii), next(angles)), 1))
            n -= blocks[-1].size // 2
        return blocks

    @classmethod
    def check_seeded_simple_spectrum(cls, seed):
        """The normal form of a seeded conjugate of ``simple_blocks``, with
        the blocks' invariants, a small residual and a symplectic basis."""
        rng = np.random.default_rng(seed)
        n = 1 + seed % 4
        blocks = cls.simple_blocks(rng, n)
        k = random_symplectic(n, seed, 0.3, max_cond=10)
        a = k @ assemble(blocks) @ np.linalg.inv(k)
        rep = normal_form(a)
        assert invariants_of(rep) == invariants_of(
            NormalFormReport(blocks=tuple(blocks), basis=np.eye(2 * n),
                             residual=0.0))
        assert rep.residual <= DEFAULT_TOL.tol_nf * np.linalg.norm(a)
        assert symplectic_residual(rep.basis) < 1e-7

    @pytest.mark.parametrize("seed", range(12))
    def test_simple_spectrum_takes_eigenvectors(self, seed, monkeypatch):
        calls = self.spy_eigenspaces(monkeypatch)
        self.check_seeded_simple_spectrum(seed)
        assert calls == []

    @pytest.mark.parametrize("seed", range(12))
    def test_chain_source_gives_the_same_blocks(self, seed, monkeypatch):
        # the same builders, fed generalized eigenspaces for every quadruple
        monkeypatch.setattr(nf, "_isolated", lambda evals, lam: False)
        calls = self.spy_eigenspaces(monkeypatch)
        self.check_seeded_simple_spectrum(seed)
        assert len(calls) > 0

    def test_a_lone_column_is_a_chain_of_one(self):
        # (A - 2) v is 1.5e-5, above the nilpotency threshold, yet a chain
        # cannot outgrow its one-column eigenspace
        a = np.diag([2.0, 0.5])
        v = np.array([[1.0], [1e-5]])
        p, NpV = nf._nilpotency(a, 2.0, v)
        assert p == 0 and NpV is v
        # a Jordan block on its whole two-column eigenspace has p = 1
        p, NpV = nf._nilpotency(np.array([[2.0, 1.0], [0.0, 2.0]]), 2.0,
                                np.eye(2))
        assert p == 1 and np.allclose(NpV, [[0.0, 1.0], [0.0, 0.0]])

    def test_one_by_one_dual_pairing(self):
        om = nf.omega_matrix(1)
        e, g = np.array([1.0, 0.0]), np.array([0.0, 4.0])
        (f,) = nf._dual_basis(om, [e], [g])
        assert nf._pair(om, e, f) == 1.0
        with pytest.raises(NormalFormError, match="degenerate chain pairing"):
            nf._dual_basis(om, [e], [e])

    def test_every_case_is_drawn(self):
        cases = {b.case for seed in range(12) for b in self.simple_blocks(
            np.random.default_rng(seed), 1 + seed % 4)}
        assert cases == {"UnitNonRealOdd", "OffCircleReal", "OffCircleComplex"}

    def test_repeated_spectrum_takes_the_chain(self, monkeypatch):
        calls = self.spy_eigenspaces(monkeypatch)
        rot = block("UnitNonRealOdd", 2, (1.5,), 1)
        hyp = block("OffCircleReal", 2, (2.0,), 1)
        a = conjugate(assemble([rot, rot, hyp, hyp]), 4, seed=7)
        rep = normal_form(a)
        assert invariants_of(rep) == (
            ("OffCircleReal", 2, 1, (2.0,), None),) * 2 + (
            ("UnitNonRealOdd", 2, 1, (1.5,), None),) * 2
        assert len(calls) > 0

    def test_perturbed_matrix_takes_the_chain(self, monkeypatch):
        # the perturbation parts the repeated eigenvalue 2 by far less than
        # the isolation gap, so each part keeps the chain construction
        calls = self.spy_eigenspaces(monkeypatch)
        ap = semisimple_perturb(np.diag([2.0, 2.0, 0.5, 0.5]), eps=1e-6)
        tol = DEFAULT_TOL.with_overrides(tol_eig=2.5e-9)
        rep = normal_form(ap, tol)
        assert [b.case for b in rep.blocks] == ["OffCircleReal"] * 2
        assert rep.residual <= tol.tol_nf * np.linalg.norm(ap)
        assert len(calls) > 0
