"""WIRE-PARITY checks every configured pair, not just the ones it finds.

The rule skips a pair whose function or schema constant it cannot
resolve — that is what lets one default config run over the small
fixture repos.  Against the real repository a skip would be a silent
hole (a renamed encoder, a schema set built by a comprehension), so
every pair of :func:`default_config` must resolve here: both functions
found, at least one literal key produced, and every schema constant a
literal string set.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis.lint import Project, default_config
from repro.analysis.lint.rules._ast_util import (
    find_function,
    literal_dict_keys,
    read_dict_keys,
    set_constant,
)

REPO_ROOT = Path(__file__).resolve().parents[2]

WIRE = default_config().wire_parity


@pytest.fixture(scope="module")
def project() -> Project:
    return Project(REPO_ROOT)


def _function(project: Project, path: str, name: str):
    tree = project.tree(path)
    assert tree is not None, f"{path} does not parse or is missing"
    func = find_function(tree, name)
    assert func is not None, f"no function {name!r} in {path}"
    return func


@pytest.mark.parametrize(
    "pair", WIRE.dict_pairs, ids=lambda p: f"{p.encoder_func}-{p.decoder_func}"
)
def test_dict_pair_resolves(project, pair):
    encoder = _function(project, pair.encoder_path, pair.encoder_func)
    decoder = _function(project, pair.decoder_path, pair.decoder_func)
    assert literal_dict_keys(encoder), f"{pair.encoder_func} yields no keys"
    assert read_dict_keys(decoder), f"{pair.decoder_func} reads no keys"


@pytest.mark.parametrize(
    "pair", WIRE.request_pairs, ids=lambda p: p.renderer_func
)
def test_request_pair_resolves(project, pair):
    renderer = _function(project, pair.renderer_path, pair.renderer_func)
    assert literal_dict_keys(renderer), f"{pair.renderer_func} yields no keys"
    schema = project.tree(pair.schema_path)
    assert schema is not None, f"{pair.schema_path} is missing"
    for const in pair.schema_consts:
        value = set_constant(schema, const)
        assert value is not None, (
            f"{const} in {pair.schema_path} is not a literal string set"
        )
        assert value[0], f"{const} is empty"


def test_every_query_shape_has_a_pair():
    encoders = {p.encoder_func for p in WIRE.dict_pairs}
    renderers = {p.renderer_func for p in WIRE.request_pairs}
    for shape in ("profile", "journey", "batch", "multicriteria", "via",
                  "min_transfers"):
        assert f"encode_{shape}" in encoders
        assert f"{shape}_body" in renderers
