"""Metamorphic relations: the verdicts move with the input as the geometry
says they must.

- Galois: sqrt5 -> -sqrt5 maps the configuration onto its conjugate, and
  canonical forms commute with it (a coprime vector led by a positive
  integer stays so), so the conjugated points give the conjugate of every
  artifact: `config.json` and the four verdicts.
- Relabelling: permuting the points permutes the lines, and with the halves
  mapped along, every verdict still passes with the same forms and the same
  refutation.
"""

import random
from fractions import Fraction

import pytest

from h4geproci import config, geproci
from h4geproci.field import conj
from h4geproci.projective import ProjPoint

H4_POINTS = config._parse_points()


def _verdicts(cfg, seed):
    """The four verdict artifacts at one seed, by name."""
    out = {"geproci": geproci.verify_geproci(cfg, seed).to_json(),
           "not-halfgrid": geproci.verify_not_half_grid(cfg, seed).to_json()}
    for half in config.HALVES:
        out[f"halfgrid-{half.name}"] = geproci.verify_half_grid(
            cfg, seed, half.name).to_json()
    return out


def _conjugate_json(blob):
    """The JSON with every element {"a": a, "b": b} of Q(phi) conjugated:
    a + b*phi -> (a + b) - b*phi."""
    if isinstance(blob, dict):
        if blob.keys() == {"a", "b"}:
            a, b = Fraction(blob["a"]), Fraction(blob["b"])
            return {"a": str(a + b), "b": str(-b)}
        return {k: _conjugate_json(v) for k, v in blob.items()}
    if isinstance(blob, list):
        return [_conjugate_json(v) for v in blob]
    return blob


def _first_difference(got, want, path="$"):
    """The first JSON path where the two differ, or None."""
    if type(got) is not type(want):
        return path
    if isinstance(got, dict):
        if got.keys() != want.keys():
            return path
        for k in got:
            diff = _first_difference(got[k], want[k], f"{path}.{k}")
            if diff:
                return diff
        return None
    if isinstance(got, list):
        if len(got) != len(want):
            return path
        for i, (g, w) in enumerate(zip(got, want)):
            diff = _first_difference(g, w, f"{path}[{i}]")
            if diff:
                return diff
        return None
    return None if got == want else path


@pytest.fixture(scope="module")
def h4_verdicts(cfg):
    """H4's verdicts at seeds 1-20, made before any test patches `config`."""
    return {seed: _verdicts(cfg, seed) for seed in range(1, 21)}


def _build(monkeypatch, points, halves=config.HALVES):
    monkeypatch.setattr(config, "_parse_points", lambda: list(points))
    monkeypatch.setattr(config, "HALVES", halves)
    return config.build_h4()


def test_the_conjugate_points_give_the_conjugate_artifacts(cfg, h4_verdicts,
                                                           monkeypatch):
    """config.json and the four verdicts at seeds 1-20, from the conjugated
    points, are the conjugates of H4's."""
    conjugated = [ProjPoint([conj(w) for w in p.pairs]) for p in H4_POINTS]
    assert conjugated != H4_POINTS
    expected = {"config": cfg.to_json()}
    expected.update({f"{name} seed {seed}": blob for seed, verdicts in h4_verdicts.items()
                     for name, blob in verdicts.items()})
    other = _build(monkeypatch, conjugated)
    got = {"config": other.to_json()}
    got.update({f"{name} seed {seed}": blob for seed in range(1, 21)
                for name, blob in _verdicts(other, seed).items()})
    assert got.keys() == expected.keys()
    for name in expected:
        diff = _first_difference(got[name], _conjugate_json(expected[name]))
        assert diff is None, f"{name}: conjugate differs at {diff}"


def _relabelled(cfg, rng):
    """Shuffled points, and the halves mapped through the induced line
    permutation: lines are indexed in lexicographic order of their points."""
    order = list(range(60))
    rng.shuffle(order)
    points = [H4_POINTS[i] for i in order]
    new_index = {old + 1: new + 1 for new, old in enumerate(order)}
    lines = {i: tuple(sorted(new_index[p] for p in pts))
             for i, pts in cfg.line_points.items()}
    position = {pts: k for k, pts in enumerate(sorted(lines.values()), start=1)}
    line_map = {i: position[pts] for i, pts in lines.items()}
    halves = tuple(h._replace(l_lines=tuple(map(line_map.get, h.l_lines)),
                              m_lines=tuple(map(line_map.get, h.m_lines)),
                              external_line=line_map[h.external_line])
                   for h in config.HALVES)
    return points, halves


def _forms_and_refutation(verdicts):
    """The index-free parts: the sextic, the quintics and the refutation."""
    geo = verdicts["geproci"]
    return ([geo["sextic"], geo["quintic1"], geo["quintic2"]]
            + [verdicts[f"halfgrid-{h}"]["quintic"] for h in ("z1", "z2")],
            verdicts["not-halfgrid"])


@pytest.mark.parametrize("perm_seed", [1, 2, 3])
def test_relabelled_points_give_the_same_verdicts(cfg, h4_verdicts, monkeypatch,
                                                  perm_seed):
    """At seeds 1-3 every verdict of the relabelled configuration passes,
    and its forms and refutation are H4's, byte for byte."""
    points, halves = _relabelled(cfg, random.Random(perm_seed))
    other = _build(monkeypatch, points, halves)
    assert other.line_points != cfg.line_points
    for seed in (1, 2, 3):
        verdicts = _verdicts(other, seed)
        assert all(v["passed"] for k, v in verdicts.items() if k != "not-halfgrid")
        assert verdicts["not-halfgrid"]["refuted"]
        assert _forms_and_refutation(verdicts) == \
            _forms_and_refutation(h4_verdicts[seed])
