"""Shared fixtures: the configuration, one full certificate per session, and
the prime the exact nullspace starts from."""

import pytest

from h4geproci import geproci, linalg
from h4geproci.config import build_h4


@pytest.fixture(scope="session")
def cfg():
    return build_h4()


@pytest.fixture(scope="session")
def geproci_cert_seed1(cfg):
    return geproci.verify_geproci(cfg, 1)


@pytest.fixture(params=["stored", "split prime 11"])
def kernel_prime(request, monkeypatch):
    """The prime `nullspace` starts from: the stored one, or 11 (phi -> 4),
    which forces most kernels through CRT over further split primes.
    Returns the list of further primes drawn."""
    drawn = []
    split_primes = linalg._split_primes

    def counting():
        for q, r in split_primes():
            drawn.append(q)
            yield q, r

    if request.param != "stored":
        monkeypatch.setattr(linalg, "_KERNEL_PRIME", (11, 4))
    monkeypatch.setattr(linalg, "_split_primes", counting)
    return drawn
