import numpy as np
import pytest

from cellfree_dab.pa_model import (
    PaModel,
    amplify,
    bussgang_gain_diag,
    distortion_cov,
)
from reference import bussgang_gain


def rand_c(rng, *shape, scale=1.0):
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def gaussian_symbols(rng, K, n):
    return rand_c(rng, K, n, scale=np.sqrt(0.5))  # unit covariance


def test_amplify_zero_and_ideal():
    pa = PaModel.reference()
    assert np.allclose(amplify(np.zeros(4), pa), 0.0)
    x = np.array([0.3 + 0.1j, -1.2j, 2.0])
    assert np.allclose(amplify(x, PaModel.ideal()), x)


def test_amplify_reference_scalar():
    pa = PaModel.reference()
    z = amplify(np.array([1.0 + 0j]), pa)[0]
    assert z == pytest.approx(1.2009 + 0.0677j, abs=2e-4)


def test_beta1_must_be_nonzero():
    with pytest.raises(ValueError):
        PaModel(beta1=0.0, beta3=0.1)


def test_ideal_constructor():
    pa = PaModel.ideal()
    assert pa.beta1 == 1.0 and pa.beta3 == 0.0 and pa.is_ideal


def test_bussgang_gain_zero_beamformer():
    pa = PaModel.reference()
    G = bussgang_gain(np.zeros((3, 2)), pa)
    assert np.allclose(G, pa.beta1 * np.eye(3))


def test_bussgang_gain_scalar_case():
    pa = PaModel.reference()
    Pt = 1.7
    G = bussgang_gain(np.array([[np.sqrt(Pt)]]), pa)
    assert G[0, 0] == pytest.approx(pa.beta1 + 2 * pa.beta3 * Pt)


def test_distortion_cov_scalar_and_ideal():
    pa = PaModel.reference()
    P = 0.9
    Cd = distortion_cov(np.array([[np.sqrt(P)]]), pa)
    assert Cd[0, 0] == pytest.approx(2 * abs(pa.beta3) ** 2 * P ** 3)
    assert np.allclose(distortion_cov(np.ones((3, 2)), PaModel.ideal()), 0.0)


def test_gain_diagonality_and_cd_structure():
    rng = np.random.default_rng(0)
    pa = PaModel.reference()
    W = rand_c(rng, 4, 2)
    G = bussgang_gain(W, pa)
    off = G - np.diag(np.diag(G))
    assert np.linalg.norm(off) < 1e-12 * np.linalg.norm(G)
    Cd = distortion_cov(W, pa)
    assert np.linalg.norm(Cd - Cd.conj().T) < 1e-10 * np.linalg.norm(Cd)
    eigs = np.linalg.eigvalsh(0.5 * (Cd + Cd.conj().T))
    assert eigs.min() >= -1e-10 * np.linalg.norm(Cd)


class TestMonteCarloMoments:
    """Sample-statistics oracles for the gain and covariance formulas."""

    n = 100_000

    def _draw(self, rng, Nt, K):
        pa = PaModel.reference()
        W = rand_c(rng, Nt, K, scale=0.6)
        S = gaussian_symbols(rng, K, self.n)
        X = W @ S
        Z = amplify(X, pa)
        return pa, W, X, Z

    def test_gain_identity(self):
        # Czx = G Cxx; stated without the inverse because Cxx is rank K < Nt
        rng = np.random.default_rng(2024)
        pa, W, X, Z = self._draw(rng, 4, 2)
        G = bussgang_gain(W, pa)
        Czx = Z @ X.conj().T / self.n
        Cxx = X @ X.conj().T / self.n
        err = np.linalg.norm(Czx - G @ Cxx) / np.linalg.norm(G @ Cxx)
        assert err <= 0.02

    def test_gain_literal_inverse_full_rank(self):
        # with K >= Nt the empirical Czx Cxx^-1 is well posed
        rng = np.random.default_rng(7)
        pa, W, X, Z = self._draw(rng, 2, 3)
        G = bussgang_gain(W, pa)
        Czx = Z @ X.conj().T / self.n
        Cxx = X @ X.conj().T / self.n
        G_hat = Czx @ np.linalg.inv(Cxx)
        assert np.linalg.norm(G_hat - G) / np.linalg.norm(G) <= 0.02

    def test_distortion_covariance(self):
        rng = np.random.default_rng(5)
        pa, W, X, Z = self._draw(rng, 4, 2)
        D = Z - bussgang_gain(W, pa) @ X
        Cd_hat = D @ D.conj().T / self.n
        Cd = distortion_cov(W, pa)
        assert np.linalg.norm(Cd_hat - Cd) / np.linalg.norm(Cd) <= 0.05

    def test_residual_uncorrelated_with_input(self):
        rng = np.random.default_rng(11)
        pa, W, X, Z = self._draw(rng, 4, 2)
        D = Z - bussgang_gain(W, pa) @ X
        prod = D[:, None, :] * X.conj()[None, :, :]  # (Nt, Nt, n)
        mean = prod.mean(axis=2)
        stderr = prod.std(axis=2) / np.sqrt(self.n)
        assert np.all(np.abs(mean.real) <= 3 * stderr + 1e-15)
        assert np.all(np.abs(mean.imag) <= 3 * stderr + 1e-15)


def test_gain_diag_matches_matrix():
    rng = np.random.default_rng(3)
    pa = PaModel.reference()
    W = rand_c(rng, 5, 3)
    assert np.allclose(np.diag(bussgang_gain(W, pa)),
                       bussgang_gain_diag(W, pa))
