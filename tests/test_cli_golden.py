"""Golden CLI output: SHA-256 of the exit code and stdout of fixed commands.

The digests were recorded before the multiset arithmetic was reworked;
any change in what the CLI prints on these inputs fails here.  The
``structured_boundaries`` digests were recorded when ``chain --format
structured`` began to key its ``boundaries`` by dimension, then name.  CI runs
this file again under two fixed ``PYTHONHASHSEED`` values, so output that
depends on set or dict iteration order of string-keyed data shows up.
"""

import hashlib
import json

import pytest

from conftest import FIXTURE_DIR
from paritykit import fixtures
from paritykit.cli import main
from paritykit.generators import family

FAMILY_CASES = [("globe", 3), ("oriental", 4), ("cube", 3)]
FAMILY_COMMANDS = {
    "validate": ["validate", "{file}", "--format", "structured"],
    "chain": ["chain", "{file}", "--check"],
    "boundaries": ["chain", "{file}"],
    "cells": ["cells", "{file}", "--max-dim", "{n}"],
    "roundtrip": ["roundtrip", "{file}"],
    "structured_boundaries": ["chain", "{file}", "--format", "structured"],
}
FIXTURE_COMMANDS = {
    "validate": ["validate", "{file}"],
    "chain": ["chain", "{file}", "--check"],
    "boundaries": ["chain", "{file}"],
    "structured_boundaries": ["chain", "{file}", "--format", "structured"],
}

GOLDEN = {
    ("globe", 3, "validate"): "e04fb89ce42259123ae93979eb8a3e53e86aff2aac11db2ff736419697b71396",
    ("globe", 3, "chain"): "a2aa2aa932bff6e23ad2a4022105a31a8b8732adeada68b020418d0811de82dd",
    ("globe", 3, "boundaries"): "7c219acd7dd8988d7a3fcd5feff3d1e291d7f74de2dc3fab9fab40db8bb2735c",
    ("globe", 3, "cells"): "b1b330282edbbc022fa422fa41ebb77708acf896fcb8800ea8d2e051e1bb5c8f",
    ("globe", 3, "roundtrip"): "d0f56f3945070508784bdf0594bcd49797cc4df3d8401edf2d6e5b94c83b335a",
    ("oriental", 4, "validate"): "f382c827195de31c9a9dbf0cae5d9258cb39fdac914e2143c9b6197b73099318",
    ("oriental", 4, "chain"): "a2aa2aa932bff6e23ad2a4022105a31a8b8732adeada68b020418d0811de82dd",
    ("oriental", 4, "boundaries"): "e094ea83ce8661ce11b456a58f8ddea508a0536e18662166e7d67c1c56fe3018",
    ("oriental", 4, "cells"): "85d4c6523439a927f0c0f7a2cdb3f1371177d4cf7c31df0aa47e52f73d8ffa41",
    ("oriental", 4, "roundtrip"): "d0f56f3945070508784bdf0594bcd49797cc4df3d8401edf2d6e5b94c83b335a",
    ("cube", 3, "validate"): "4b7877deadb70be633c5ab5bfefc28bfef3e0e2df2a88988726a1673b5004f02",
    ("cube", 3, "chain"): "a2aa2aa932bff6e23ad2a4022105a31a8b8732adeada68b020418d0811de82dd",
    ("cube", 3, "boundaries"): "09a631034ccaa06342457edbdab64fd721acfa86e0e98859ce9469a0b39e0bb7",
    ("cube", 3, "cells"): "f86997f2d2253444ff4477942bd35ae51aa870486dc7f8518673fd8007085996",
    ("cube", 3, "roundtrip"): "d0f56f3945070508784bdf0594bcd49797cc4df3d8401edf2d6e5b94c83b335a",
    ("circle", None, "validate"): "140de3eeb3f16d53d49291ba10cccc6c78b93361883504d23feb78ac79d52a41",
    ("circle", None, "chain"): "a2aa2aa932bff6e23ad2a4022105a31a8b8732adeada68b020418d0811de82dd",
    ("circle", None, "boundaries"): "33a898e1e2e021ef492a3bd762b158c5063e96cb6046c5ec68c93edbe4b393cd",
    ("weak_not_strong", None, "validate"): "71078ba6b3fce4c5262a6b46dff2dc09e038c1bc4c2c0a41a580723ea6d38cd0",
    ("weak_not_strong", None, "chain"): "a2aa2aa932bff6e23ad2a4022105a31a8b8732adeada68b020418d0811de82dd",
    ("weak_not_strong", None, "boundaries"): "66cdfaa0dd1a7405a27e25a7d7e9b3fbfb2e65927a089517fcd89a97e3420610",
    ("globe", 3, "structured_boundaries"): "dbdfb72325aef30bb4e5e75376d836ae9f6706bdf1d5aae729305541e0bc2dcb",
    ("oriental", 4, "structured_boundaries"): "d4876f2d49fc2c928dc06f85d260fa04a3a1485ac9e1c4a44a4540f84a5e7184",
    ("cube", 3, "structured_boundaries"): "d210b2cde620123f36b4319f1f58f56500270444895e2129c6d4b7204cee319c",
    ("circle", None, "structured_boundaries"): "92c9cf5b9d7d519dc5852256b2bf2eae09339006ba7afcb2c380f63016a2816c",
    ("weak_not_strong", None, "structured_boundaries"): "eb873426cb54d97b8c2d2c19b33e0fbed5254b00a9f3265ae7f3f1ac697f540b",
    ("shared_name", None, "structured_boundaries"): "1c676dcd5c67f5bec9497861d0174bd10a9b0c2f55adc9a2e3dca554af437f6b",
}


def run_digest(capsys, template, file, n=None) -> str:
    argv = [arg.format(file=file, n=n) for arg in template]
    code = main(argv)
    out = capsys.readouterr().out
    return hashlib.sha256(f"{code}\n{out}".encode()).hexdigest()


@pytest.mark.parametrize("command", sorted(FAMILY_COMMANDS))
@pytest.mark.parametrize("name, n", FAMILY_CASES)
def test_family_output(capsys, tmp_path, name, n, command):
    path = tmp_path / f"{name}{n}.json"
    path.write_text(fixtures.dumps(family(name, n), name=f"{name}-{n}"))
    digest = run_digest(capsys, FAMILY_COMMANDS[command], path, n)
    assert digest == GOLDEN[(name, n, command)]


@pytest.mark.parametrize("command", sorted(FIXTURE_COMMANDS))
@pytest.mark.parametrize("name", ["circle", "weak_not_strong"])
def test_fixture_output(capsys, name, command):
    path = FIXTURE_DIR / f"{name}.json"
    digest = run_digest(capsys, FIXTURE_COMMANDS[command], path)
    assert digest == GOLDEN[(name, None, command)]


def shared_name():
    """u, v; x, y: u -> v; x: x => y, where a 1-generator and a
    2-generator are both named x."""
    from paritykit.parity_core import ParityStructure

    return ParityStructure.build([
        ("u", 0, [], []), ("v", 0, [], []),
        ("x", 1, ["u"], ["v"]), ("y", 1, ["u"], ["v"]),
        ("x", 2, ["x"], ["y"]),
    ])


def test_structured_boundaries_of_a_shared_name(capsys, tmp_path):
    path = tmp_path / "shared-name.json"
    path.write_text(fixtures.dumps(shared_name(), name="shared-name"))
    assert main(["chain", str(path), "--format", "structured"]) == 0
    boundaries = json.loads(capsys.readouterr().out)["boundaries"]
    assert boundaries == {"1": {"x": "-u +v", "y": "-u +v"}, "2": {"x": "-x +y"}}
    digest = run_digest(capsys, FIXTURE_COMMANDS["structured_boundaries"], path)
    assert digest == GOLDEN[("shared_name", None, "structured_boundaries")]
