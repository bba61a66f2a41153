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
    "build_h4":
        "28b213a65c76df8db8f092ec1284b685ff72c3c5beb3ed3898868dad51d9b490",
    "enumerate_coverings":
        "34e01543edebb35fb0e66f16ddee8098e8fbe8b32923dae0b32341c43941a982",
    "enumerate_grids":
        "ebdd3b3eb90d859467739600006121921ed1002b56e3e026a758f32fefa77a0b",
    "verify_geproci seed 1":
        "481641c7fccc314ee516dedd1497a648c4bce98100c700f1b19ed980359259d9",
    "verify_geproci seed 2":
        "edfe5786cb0c9aa90783fb3ad342ed830bd041ee162b387ba23004ebc33d4c38",
    "verify_half_grid z1 seed 1":
        "f9c30611bf6fb206c2c967de02479a4a1cbc122034b4c240a8bcf4ee98ab8835",
    "verify_half_grid z1 seed 2":
        "6679773d6f8584b7ef0bcf7669e39834c408437ad016354a4d4c4b60c6cd5cb2",
    "verify_half_grid z2 seed 1":
        "f94feca6b32606cd1f9561ff9f4273489223f006c038e239c8c0219544b2c731",
    "verify_half_grid z2 seed 2":
        "1f3bd63bef2797c300af0a7756e0446abfabe520f17ecf1aa14bdbffda0d2cc6",
    "verify_not_half_grid seed 1":
        "c673eea05f0ad28c0e7574ffd8c66e1cc4276d4d39da52fed8d249728de198e8",
    "verify_not_half_grid seed 2":
        "c673eea05f0ad28c0e7574ffd8c66e1cc4276d4d39da52fed8d249728de198e8",
    "verify_geproci seed 12345":
        "9fc55d159b35506005715e66678ec0c30fe3c1787c88fb51fde4e7525d34f572",
    "verify_half_grid z1 seed 12345":
        "4aa1ca49510ffb7727d4e71f542be82d029695c37b4beaefeabe327b23535d63",
    "verify_half_grid z2 seed 12345":
        "ed78dfeec140d9c5e4c1645a0255b8941caed79c8ea693da262a176378524cc7",
    "verify_not_half_grid seed 12345":
        "c673eea05f0ad28c0e7574ffd8c66e1cc4276d4d39da52fed8d249728de198e8",
}

ARTIFACTS = {
    "build_h4": lambda cfg: cfg.to_json(),
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
