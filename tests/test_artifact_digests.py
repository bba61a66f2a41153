"""The certificate artifacts stay byte-identical from one change to the next.

Each digest is the sha256 of the artifact's canonical JSON (sorted keys,
separators "," and ":"), the rule the benchmark uses to compare artifacts.
A change that alters any byte of these artifacts fails here; if the change
is meant to alter them, record the new digests together with the reason.
"""

import hashlib
import json

import pytest

from h4geproci import (build_h4, enumerate_coverings, enumerate_grids,
                       verify_geproci, verify_half_grid, verify_not_half_grid)

PINNED = {
    "enumerate_coverings":
        "34e01543edebb35fb0e66f16ddee8098e8fbe8b32923dae0b32341c43941a982",
    "enumerate_grids":
        "ebdd3b3eb90d859467739600006121921ed1002b56e3e026a758f32fefa77a0b",
    "verify_geproci seed 1":
        "2f9028a6b391b5c7861a49685d355f264952a0c47af17dc7e832c74e1475377c",
    "verify_geproci seed 2":
        "eee074fdc6b257347a5b7a26a1f5c28cdf39569eb4e09a30cf01dbee91b6823a",
    "verify_half_grid z1 seed 1":
        "2e3b9b0ddddef49a65281d02f6a90bead5f5fc590ec74761a1f117612f8021be",
    "verify_half_grid z1 seed 2":
        "65dd81aa1e9db1ad330df3f8a18a792925e34520675eea7d86a457c17f08f910",
    "verify_half_grid z2 seed 1":
        "2c701232ab33282086172b3a166fade4c4433d84b761dadcac000301aa9c0599",
    "verify_half_grid z2 seed 2":
        "9f4ebe9f95c40f1c54c1bde0438bcd6f77064aca694330b34b4b510734ca63c4",
    "verify_not_half_grid seed 1":
        "c673eea05f0ad28c0e7574ffd8c66e1cc4276d4d39da52fed8d249728de198e8",
    "verify_not_half_grid seed 2":
        "c673eea05f0ad28c0e7574ffd8c66e1cc4276d4d39da52fed8d249728de198e8",
    "verify_geproci seed 12345":
        "5096bd84d3cee5b10bb5debce56fe4e60ba96786309e0ee25584728e5f36b58a",
    "verify_half_grid z1 seed 12345":
        "601b98710edd2510a1e8a54a0a255e2a702d421cab1c07fda6e3f09d19ea19e0",
    "verify_half_grid z2 seed 12345":
        "84e23a60eb83c8a07d57e1a58e0af1ea439446eeb822d4234ef0e05d9b8fac69",
    "verify_not_half_grid seed 12345":
        "c673eea05f0ad28c0e7574ffd8c66e1cc4276d4d39da52fed8d249728de198e8",
}

ARTIFACTS = {
    "enumerate_coverings":
        lambda cfg: [c.to_json() for c in enumerate_coverings(cfg)],
    "enumerate_grids": lambda cfg: [g.to_json() for g in enumerate_grids(cfg)],
    "verify_geproci seed 1": lambda cfg: verify_geproci(cfg, 1).to_json(),
    "verify_geproci seed 2": lambda cfg: verify_geproci(cfg, 2).to_json(),
    "verify_half_grid z1 seed 1":
        lambda cfg: verify_half_grid(cfg, 1, "z1").to_json(),
    "verify_half_grid z1 seed 2":
        lambda cfg: verify_half_grid(cfg, 2, "z1").to_json(),
    "verify_half_grid z2 seed 1":
        lambda cfg: verify_half_grid(cfg, 1, "z2").to_json(),
    "verify_half_grid z2 seed 2":
        lambda cfg: verify_half_grid(cfg, 2, "z2").to_json(),
    "verify_not_half_grid seed 1":
        lambda cfg: verify_not_half_grid(cfg, 1).to_json(),
    "verify_not_half_grid seed 2":
        lambda cfg: verify_not_half_grid(cfg, 2).to_json(),
    "verify_geproci seed 12345":
        lambda cfg: verify_geproci(cfg, 12345).to_json(),
    "verify_half_grid z1 seed 12345":
        lambda cfg: verify_half_grid(cfg, 12345, "z1").to_json(),
    "verify_half_grid z2 seed 12345":
        lambda cfg: verify_half_grid(cfg, 12345, "z2").to_json(),
    "verify_not_half_grid seed 12345":
        lambda cfg: verify_not_half_grid(cfg, 12345).to_json(),
}


def _digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture(scope="module")
def cfg():
    return build_h4()


@pytest.mark.parametrize("name", sorted(PINNED))
def test_artifact_digest_is_pinned(cfg, name):
    assert _digest(ARTIFACTS[name](cfg)) == PINNED[name]
