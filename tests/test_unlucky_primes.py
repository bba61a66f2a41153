"""Every modular shortcut, run at small split primes where it can fail.

Rank mod P decides zero dimensions, a split prime proposes each kernel,
and smoothness is certified mod p.  Each argument is sound for every prime,
so at an unlucky one a pipeline must still give its baseline verdict, fall
back to the safe side ("not refuted"), or raise a VerificationError that
names an indeterminate outcome.  A shortcut that turned "not certified mod
p" into a verdict fails here.  The configuration depends on no prime:
`config.build_h4` decides every meet of the 72 lines exactly, and the
three-skew-lines theorem of `config.verify_grid` certifies the grid quadrics.
"""

from math import isqrt

import pytest

from h4geproci import config, geproci, linalg
from h4geproci.config import z_partition
from h4geproci.coverings import enumerate_grids

SPLIT_PRIMES = (11, 19, 29, 31, 41, 59, 61, 71, 101, 1009, 10009)


def _phi_root(p):
    """A root of x^2 - x - 1 mod p, by search: `linalg._split_primes` takes
    a square root only for p = 3 (mod 4)."""
    return next(r for r in range(p) if (r * r - r - 1) % p == 0)


def _split_primes_from(p):
    """The primes q >= p with q = +-1 (mod 5), each with its phi root."""
    q = p
    while True:
        if q % 5 in (1, 4) and all(q % d for d in range(2, isqrt(q) + 1)):
            yield q, _phi_root(q)
        q += 1


@pytest.fixture
def unlucky(monkeypatch):
    """Move the rank tests, smoothness and the kernel's later primes to the
    split primes from p up.  `_KERNEL_PRIME` stays out of that stream:
    `nullspace` chains it in front, and CRT needs distinct primes."""
    def move_to(p):
        q, r = next(_split_primes_from(p))
        assert q == p, f"{p} is not a split prime"
        monkeypatch.setattr(linalg, "_PRIME", p)
        monkeypatch.setattr(linalg, "_PHI_ROOT", r)
        monkeypatch.setattr(linalg, "_split_primes", lambda: _split_primes_from(p))
    return move_to


def _outcome(call, *args):
    """The pipeline's result, or None when it raises a VerificationError
    that names an indeterminate outcome; any other exception propagates."""
    try:
        return call(*args)
    except config.VerificationError as exc:
        assert "indeterminate" in str(exc), exc
        return None


# Twenty points whose images at vertex seed 1 lie on no quartic: "refuted",
# as no type (a, 20/a) has a, 20/a >= 5.  Rank is lost mod 11 in degree 4.
UNLUCKY_AT_11 = (3, 4, 6, 8, 9, 15, 26, 28, 36, 37, 38, 41, 49, 50, 52, 53,
                 55, 56, 57, 59)


@pytest.fixture(scope="module")
def baselines(cfg):
    z1 = z_partition(cfg)[0]
    return (geproci.verify_half_grid(cfg, 1, "z1"),
            geproci.verify_not_half_grid(cfg, 1), z1,
            geproci.verify_not_half_grid(cfg, 1, UNLUCKY_AT_11, "twenty"))


def _without_smoothness(cert):
    blob = cert.to_json()
    del blob["sextic_smooth"]
    return blob


@pytest.mark.parametrize("p", SPLIT_PRIMES)
def test_no_unlucky_prime_changes_a_verdict(p, cfg, unlucky, baselines,
                                            geproci_cert_seed1):
    half_grid, refutation, z1, twenty = baselines
    unlucky(p)
    cert = _outcome(geproci.verify_geproci, cfg, 1)
    assert cert is None or (_without_smoothness(cert)
                            == _without_smoothness(geproci_cert_seed1))
    assert _outcome(geproci.verify_half_grid, cfg, 1, "z1") in (None, half_grid)
    report = _outcome(geproci.verify_not_half_grid, cfg, 1)
    assert report is None or report == refutation or not report.refuted
    report = _outcome(geproci.verify_not_half_grid, cfg, 1, z1, "z1")
    assert report is None or not report.refuted
    assert twenty.refuted and twenty.forced_degrees == ()
    report = _outcome(geproci.verify_not_half_grid, cfg, 1, UNLUCKY_AT_11,
                      "twenty")
    assert report is None or report == twenty or not report.refuted
    if p == 11:  # d* = 4 forces (5, 4), which mc = 4 does not exclude: the safe side
        assert report is not None and not report.refuted
        assert report.forced_degrees == ((4, 5), (5, 4))


@pytest.mark.parametrize("p", SPLIT_PRIMES)
def test_no_unlucky_prime_changes_the_configuration(p, cfg, unlucky):
    unlucky(p)
    assert config.build_h4() == cfg


@pytest.mark.parametrize("p", SPLIT_PRIMES)
def test_the_kernel_prime_never_changes_the_certificate(p, cfg, monkeypatch,
                                                       geproci_cert_seed1):
    monkeypatch.setattr(linalg, "_KERNEL_PRIME", (p, _phi_root(p)))
    assert (geproci.verify_geproci(cfg, 1).to_json()
            == geproci_cert_seed1.to_json())


@pytest.fixture(scope="module")
def grids(cfg):
    return enumerate_grids(cfg)


@pytest.mark.parametrize("p", [11, 1009])
def test_unlucky_primes_find_the_same_grids(p, cfg, unlucky, grids):
    unlucky(p)
    assert enumerate_grids(cfg) == grids


def test_no_prime_enters_the_grid_search(cfg, monkeypatch, grids):
    """At P = (5, phi - 3), where skew pairs read 0, the grid search makes
    no rank test and finds the same grids with the same quadrics."""
    ranked = []
    monkeypatch.setattr(linalg, "independent_rows_mod",
                        lambda rows, p: ranked.append(p))
    monkeypatch.setattr(linalg, "_PRIME", 5)
    monkeypatch.setattr(linalg, "_PHI_ROOT", 3)
    assert enumerate_grids(cfg) == grids
    assert ranked == []
