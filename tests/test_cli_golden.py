"""Golden CLI output: SHA-256 of the exit code and stdout of fixed commands.

The digests were recorded before the multiset arithmetic was reworked;
any change in what the CLI prints on these inputs fails here.  The
``structured_boundaries`` digests were recorded when ``chain --format
structured`` began to key its ``boundaries`` by dimension, then name.  The
morphism digests also cover stderr and any ``-o`` file, on valid, invalid
and malformed morphism documents, so exit codes 0, 1 and 2 all occur.  CI
runs this file again under two fixed ``PYTHONHASHSEED`` values, so output
that depends on set or dict iteration order of string-keyed data shows up.
The ``validate`` and ``classify`` digests of seeded random structures, in
both formats, cover stderr too; they were recorded before the Steiner
digraphs went through each level's own generators, and their structures
fail Steiner loop-freeness at level 0 and at level 1, or pass it.
"""

import hashlib
import json
import random

import pytest

import randstruct

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


# ---------------------------------------------------------------------------
# morphism commands: the exit code, stdout, stderr and the -o file


def _morphism_docs():
    """The morphism documents the commands read, by name: the two frozen
    fixtures, the identity of globe(1), two well-formed morphisms that are
    not valid, and the malformed morphism documents of the loader's table."""
    from test_fixtures import FROZEN_DOCUMENT_ERRORS, _morphism_doc
    from paritykit.morphisms import identity_morphism

    docs = {name: (FIXTURE_DIR / f"{name}.json").read_text() for name in MORPHISM_FIXTURES}
    docs["identity_globe1"] = fixtures.dumps(identity_morphism(family("globe", 1)), name="id-globe1")
    docs["top_to_01"] = _morphism_doc(assignment={"0": {"e0-": ["0"], "e0+": ["2"]}, "1": {"top": ["01"]}})
    docs["additive_top_twice"] = _morphism_doc(
        mode="additive", assignment={"0": {"e0-": ["0"], "e0+": ["2"]}, "1": {"top": [["01", 2], "12"]}}
    )
    for key in MALFORMED_MORPHISM_DOCS:
        docs[key] = FROZEN_DOCUMENT_ERRORS[key]
    return docs


MORPHISM_FIXTURES = ("morphism_globe1_to_oriental2", "morphism_collapse_globe1")
MALFORMED_MORPHISM_DOCS = (
    "morphism_without_source", "morphism_source_an_array", "morphism_source_kind", "morphism_source_bad_name",
    "morphism_target_unknown_face", "assignment_an_array", "assignment_key_not_a_dimension",
    "assignment_dimension_an_array", "assignment_unknown_source", "assignment_unknown_target",
    "assignment_image_not_an_array", "assignment_image_count_zero", "assignment_image_sum_beyond_max_count",
    "assignment_missing_generator", "unknown_mode",
)
#: Per command, its argv: {m} is the morphism, {identity} the identity of
#: globe(1), {cell} a cell and {out} the -o file.
MORPHISM_COMMANDS = {
    "validate": ["morphism", "validate", "{m}"],
    "validate_structured": ["morphism", "validate", "{m}", "--format", "structured"],
    "validate_additive": ["morphism", "validate", "{m}", "--mode", "additive"],
    "validate_additive_structured": ["morphism", "validate", "{m}", "--mode", "additive", "--format", "structured"],
    "validate_weak": ["morphism", "validate", "{m}", "--mode", "weak_parity"],
    "validate_weak_structured": ["morphism", "validate", "{m}", "--mode", "weak_parity", "--format", "structured"],
    "compose_after_identity": ["morphism", "compose", "{identity}", "{m}", "-o", "{out}"],
    "compose_before_identity": ["morphism", "compose", "{m}", "{identity}", "-o", "{out}"],
    "apply": ["morphism", "apply", "{m}", "--cell", "{cell}"],
    "apply_structured": ["morphism", "apply", "{m}", "--cell", "{cell}", "--format", "structured"],
}

#: Recorded before the loader read morphism images straight into target
#: rows; the malformed documents' runs fold into one digest per command.
GOLDEN_MORPHISM = {
    ('additive_top_twice', 'apply'): '9a8906ff9291f2a56e27350d7795fe8fc15ad2573498019baf1735a7322c5f99',
    ('additive_top_twice', 'apply_structured'): '3814573ee1244b0050d8062f1a1086f46e42986bc2101bc8c68ee045e42ba4e8',
    ('additive_top_twice', 'compose_after_identity'): '775385cb8cf65260e40276fd2693e8e638206645ff2dcd3ae2fb2b5946df4417',
    ('additive_top_twice', 'compose_before_identity'): '80fa763a140b929f04afc6f123ad499329aa73d75980bcd9a7da113e9013ff43',
    ('additive_top_twice', 'validate'): 'a6e88ceaff2dc7cce4b4b02c357d811a90b0b81b735e9605fc3c860351d51ae8',
    ('additive_top_twice', 'validate_additive'): 'a6e88ceaff2dc7cce4b4b02c357d811a90b0b81b735e9605fc3c860351d51ae8',
    ('additive_top_twice', 'validate_additive_structured'): '0cfafd17edb7409ca4703cd3b44bbdbb493e670aee34d4f2033477b951a549ca',
    ('additive_top_twice', 'validate_structured'): '0cfafd17edb7409ca4703cd3b44bbdbb493e670aee34d4f2033477b951a549ca',
    ('additive_top_twice', 'validate_weak'): 'd6f2285eafd4cea5728f15feb3141066aa674f41543a4d1f780083bc67414281',
    ('additive_top_twice', 'validate_weak_structured'): 'a401d9308e67f7a2740ba39825ba3d1f87e485aa1ff552d707f431a55bdffa6c',
    ('morphism_collapse_globe1', 'apply'): '25d042c1ecb2a01a4a64bb5241f77491b118f17e94dd30086c7eb264e2cf6238',
    ('morphism_collapse_globe1', 'apply_structured'): 'd73e222d303aa158f5bb9fa8db861194e6907879f7d257cda81df83b290b8ab6',
    ('morphism_collapse_globe1', 'compose_after_identity'): 'a74b827659d969906fcd7351b89d74be5a28c981c1261f57571b1304964b9f20',
    ('morphism_collapse_globe1', 'compose_before_identity'): 'ef98e05419fcb95dd54429b5a362d7bac307d4d269ac3f04e2b99e4152809d34',
    ('morphism_collapse_globe1', 'validate'): 'ef9fddfb3f0b95d48b01f59c0e3f08091451ecec9067884759d77f724f65f4d6',
    ('morphism_collapse_globe1', 'validate_additive'): '31cc267148b379528c4e94856a1a94c21e767611314319be2fc27a6ca9b3fd05',
    ('morphism_collapse_globe1', 'validate_additive_structured'): 'e6fc7b169635f852685146ef1265de9823c33ec232927c160346b5a3b1ba92b1',
    ('morphism_collapse_globe1', 'validate_structured'): 'c8f2ffda1262235779cc736677d2d76f5c3f95de9dc2f077b237a1b7dc2919f0',
    ('morphism_collapse_globe1', 'validate_weak'): 'ef9fddfb3f0b95d48b01f59c0e3f08091451ecec9067884759d77f724f65f4d6',
    ('morphism_collapse_globe1', 'validate_weak_structured'): 'c8f2ffda1262235779cc736677d2d76f5c3f95de9dc2f077b237a1b7dc2919f0',
    ('morphism_globe1_to_oriental2', 'apply'): '3667921c4b8ad8d7c030ea0f7b064bbf277ae19aa1ddbe1595ad6d55fbb61518',
    ('morphism_globe1_to_oriental2', 'apply_structured'): '60354c842312f98a478dfe7ef5e02c0eec99d6a323032bbb06cdc02267a88b62',
    ('morphism_globe1_to_oriental2', 'compose_after_identity'): 'da6e0746c2d9710cb71795403dc42ce458d4c68df77f958ca9e5d2ec6039efc1',
    ('morphism_globe1_to_oriental2', 'compose_before_identity'): 'ef98e05419fcb95dd54429b5a362d7bac307d4d269ac3f04e2b99e4152809d34',
    ('morphism_globe1_to_oriental2', 'validate'): 'ef9fddfb3f0b95d48b01f59c0e3f08091451ecec9067884759d77f724f65f4d6',
    ('morphism_globe1_to_oriental2', 'validate_additive'): '31cc267148b379528c4e94856a1a94c21e767611314319be2fc27a6ca9b3fd05',
    ('morphism_globe1_to_oriental2', 'validate_additive_structured'): 'ce8237e7cdf4fadde392b38074034585c9ef565e26f07c6de1c7e0ea2552d609',
    ('morphism_globe1_to_oriental2', 'validate_structured'): '4883b4445092865469ac259641f7297e6b0bb24214dbdaa5b300264bac0756be',
    ('morphism_globe1_to_oriental2', 'validate_weak'): 'ef9fddfb3f0b95d48b01f59c0e3f08091451ecec9067884759d77f724f65f4d6',
    ('morphism_globe1_to_oriental2', 'validate_weak_structured'): '4883b4445092865469ac259641f7297e6b0bb24214dbdaa5b300264bac0756be',
    ('top_to_01', 'apply'): '86e105ed7e2aaf0c9cfbf01a6f9fbd11fd6ae1bcff747e046fde9a881319d221',
    ('top_to_01', 'apply_structured'): 'f4809342739d5c3b26ea917e9d5de12d751cec4d2911aa8cee3ab9bef6143702',
    ('top_to_01', 'compose_after_identity'): '39663080d9ac9ffbdb101ec6e387d1a1670c474b3c5d9a28a0bf2edd15a3542e',
    ('top_to_01', 'compose_before_identity'): 'ef98e05419fcb95dd54429b5a362d7bac307d4d269ac3f04e2b99e4152809d34',
    ('top_to_01', 'validate'): '43b3f7077ca7641f57363c74ebd78bdf1ce5d76f3e57ad347fdde9112c870665',
    ('top_to_01', 'validate_additive'): 'ba7c590614528b6b218a1438c9a682d6cd6183bed7d29143e1a9b6ca647aac65',
    ('top_to_01', 'validate_additive_structured'): 'e991dc676c5d4b229dbe2527b8bc4890a0212bb13e31ddee17d2875623fc6e02',
    ('top_to_01', 'validate_structured'): 'a461b3a68ccde9a9cb5333b9e2f9bec22f35829ffb0622f2a1add9a0b08f2545',
    ('top_to_01', 'validate_weak'): '43b3f7077ca7641f57363c74ebd78bdf1ce5d76f3e57ad347fdde9112c870665',
    ('top_to_01', 'validate_weak_structured'): 'a461b3a68ccde9a9cb5333b9e2f9bec22f35829ffb0622f2a1add9a0b08f2545',
    ('malformed', 'apply'): 'ec23afec4dae22f43b2e83135cd8c14b6b08229f07d7650cc822d25704afcccc',
    ('malformed', 'apply_structured'): 'ec23afec4dae22f43b2e83135cd8c14b6b08229f07d7650cc822d25704afcccc',
    ('malformed', 'compose_after_identity'): 'ec23afec4dae22f43b2e83135cd8c14b6b08229f07d7650cc822d25704afcccc',
    ('malformed', 'compose_before_identity'): 'ec23afec4dae22f43b2e83135cd8c14b6b08229f07d7650cc822d25704afcccc',
    ('malformed', 'validate'): 'ec23afec4dae22f43b2e83135cd8c14b6b08229f07d7650cc822d25704afcccc',
    ('malformed', 'validate_additive'): 'ec23afec4dae22f43b2e83135cd8c14b6b08229f07d7650cc822d25704afcccc',
    ('malformed', 'validate_additive_structured'): 'ec23afec4dae22f43b2e83135cd8c14b6b08229f07d7650cc822d25704afcccc',
    ('malformed', 'validate_structured'): 'ec23afec4dae22f43b2e83135cd8c14b6b08229f07d7650cc822d25704afcccc',
    ('malformed', 'validate_weak'): 'ec23afec4dae22f43b2e83135cd8c14b6b08229f07d7650cc822d25704afcccc',
    ('malformed', 'validate_weak_structured'): 'ec23afec4dae22f43b2e83135cd8c14b6b08229f07d7650cc822d25704afcccc',
}


def morphism_digest(capsys, tmp_path, template, files) -> str:
    """SHA-256 of the exit code, stdout, stderr and -o file of the run, or
    of each cell's run if the command reads a cell."""
    parts = []
    for cell in files["cells"] if "{cell}" in template else [None]:
        out = tmp_path / "out.json"
        out.unlink(missing_ok=True)
        argv = [arg.format(cell=cell, out=out, **files) for arg in template]
        code = main(argv)
        captured = capsys.readouterr()
        written = out.read_text() if out.exists() else None
        parts.append(f"{code}\n{captured.out}\n{captured.err}\n{written}")
    return hashlib.sha256("\x00".join(parts).encode()).hexdigest()


@pytest.fixture(scope="module")
def morphism_files(tmp_path_factory):
    """Each morphism document and the cell documents as files: every cell
    of globe(1) and one 0-cell of oriental(2) that no globe(1) cell is."""
    from paritykit.cells import enumerate_cells

    root = tmp_path_factory.mktemp("morphisms")
    files = {}
    for name, text in _morphism_docs().items():
        files[name] = root / f"{name}.json"
        files[name].write_text(text)
    tables = enumerate_cells(family("globe", 1), 1) + enumerate_cells(family("oriental", 2), 0)[1:2]
    files["cells"] = []
    for k, table in enumerate(tables):
        files["cells"].append(root / f"cell{k}.json")
        files["cells"][-1].write_text(fixtures.dumps(table, name=f"c{k}"))
    return files


@pytest.mark.parametrize("command", sorted(MORPHISM_COMMANDS))
@pytest.mark.parametrize("name", [*MORPHISM_FIXTURES, "top_to_01", "additive_top_twice"])
def test_morphism_output(capsys, tmp_path, morphism_files, name, command):
    files = {"m": morphism_files[name], "identity": morphism_files["identity_globe1"],
             "cells": morphism_files["cells"]}
    digest = morphism_digest(capsys, tmp_path, MORPHISM_COMMANDS[command], files)
    assert digest == GOLDEN_MORPHISM[(name, command)]


@pytest.mark.parametrize("command", sorted(MORPHISM_COMMANDS))
def test_malformed_morphism_output(capsys, tmp_path, morphism_files, command):
    files = {"identity": morphism_files["identity_globe1"], "cells": morphism_files["cells"][:1]}
    digests = [
        morphism_digest(capsys, tmp_path, MORPHISM_COMMANDS[command], {**files, "m": morphism_files[key]})
        for key in MALFORMED_MORPHISM_DOCS
    ]
    digest = hashlib.sha256(" ".join(digests).encode()).hexdigest()
    assert digest == GOLDEN_MORPHISM[("malformed", command)]


# ---------------------------------------------------------------------------
# validate and classify on seeded random structures, in both formats


def _random_cases():
    """Seeded draws by name, with where each fails Steiner loop-freeness."""
    from test_report_digests import _raw_overlapping
    from paritykit.parity_core import AdditiveParityStructure, ParityStructure

    def draw(seed, make):
        return make(random.Random(seed))

    return {
        "structured_parity_9": draw(9, randstruct.random_structured_parity),  # level 1
        "structured_parity_0": draw(0, randstruct.random_structured_parity),  # passes
        "additive_3": draw(3, randstruct.random_additive_structure),  # level 0
        "additive_dim4_8": draw(  # level 1, weakly loop-free
            8, lambda rng: randstruct.random_additive_structure(rng, max_gens=16, max_dim=4)),
        "raw_parity_0": draw(0, lambda rng: _raw_overlapping(rng, ParityStructure)),  # level 0
        "raw_parity_1": draw(1, lambda rng: _raw_overlapping(rng, ParityStructure)),  # passes, not strong
        "raw_additive_10": draw(10, lambda rng: _raw_overlapping(rng, AdditiveParityStructure)),  # level 1
    }


VERDICT_COMMANDS = {
    "validate": ["validate", "{file}"],
    "validate_structured": ["validate", "{file}", "--format", "structured"],
    "classify": ["classify", "{file}"],
    "classify_structured": ["classify", "{file}", "--format", "structured"],
}

GOLDEN_VERDICTS = {
    ('additive_3', 'classify'): '06435de643d776c710dec062d3c19c6ce24f95930a7e4b5e1f809013421ed1bb',
    ('additive_3', 'classify_structured'): '1e4f6131f1d11476c71716d6e30334a5969a7a73b2b26f2766872d4aad5aacda',
    ('additive_3', 'validate'): '04cf9c07d4db42f62745581c732f63cda1f6f0a37b1a755f87613c780cb6f55d',
    ('additive_3', 'validate_structured'): '05b7ffb5976b3cd749a337f54cd1951ea72f7a98f48093d0bbfc4e4252e4b2e8',
    ('additive_dim4_8', 'classify'): '06435de643d776c710dec062d3c19c6ce24f95930a7e4b5e1f809013421ed1bb',
    ('additive_dim4_8', 'classify_structured'): 'da07d6edcff480e04898a9224c89c7c6bce4ea7f8c813fb48b4e677ff553c678',
    ('additive_dim4_8', 'validate'): '5110ed575d1d7ebf20d1e3ae54fdbad9d56c708ac46d90e50f7c03eaa030f8d0',
    ('additive_dim4_8', 'validate_structured'): '1661a590af63b996b3c4f4e116f66200739708c0c0a383164a61af996ce907c6',
    ('raw_additive_10', 'classify'): '06435de643d776c710dec062d3c19c6ce24f95930a7e4b5e1f809013421ed1bb',
    ('raw_additive_10', 'classify_structured'): '9485f9918bb8c212b60de864698550d1c6935f2e1835d30ab3e2379f84a34bf7',
    ('raw_additive_10', 'validate'): '1f4f84a707383ebe9961e1e059b5367a46ef0cb480517e3821e2ba8698e3f66a',
    ('raw_additive_10', 'validate_structured'): '0763d3cd8fd33f8fdc8c66ceb3aa6aa1b1df4d75356fe1d6f3013fa86c9e049a',
    ('raw_parity_0', 'classify'): '06435de643d776c710dec062d3c19c6ce24f95930a7e4b5e1f809013421ed1bb',
    ('raw_parity_0', 'classify_structured'): '0896039335183894b5729170a369f30bdcbf00887a20c39b153b8a3be1be489d',
    ('raw_parity_0', 'validate'): 'd3ecd75247cc5995d211e86be44e4377aea546c12126706324c056800f95fa49',
    ('raw_parity_0', 'validate_structured'): '7a3aaa8e5f01d3fc5782c77abc38beb460b48d5cd2da54ad101220992108f462',
    ('raw_parity_1', 'classify'): '06435de643d776c710dec062d3c19c6ce24f95930a7e4b5e1f809013421ed1bb',
    ('raw_parity_1', 'classify_structured'): '0a1ea3262c6ef0fc7daee3beacf1833b2531e2c19a57bd2548a6a32bf7bda699',
    ('raw_parity_1', 'validate'): '2b517e7dc9ff3091dd6272b972d51bebc7dad5f612a36c3555cc2dbbea96bd53',
    ('raw_parity_1', 'validate_structured'): '96f5958eecc1a3b2262f42b9bdef23d30e39f63e8705fb86a5b13b0fa75cb2f8',
    ('structured_parity_0', 'classify'): '9e66cae0edb4a541d1e99209cbe7c741e8aa5644c9bcff06709d5cb00ac6805a',
    ('structured_parity_0', 'classify_structured'): '7be37c0a9108e88ab7316b90f07196c1a6406380896d1aafee9c8a46c7ab6ad5',
    ('structured_parity_0', 'validate'): 'dfba4485593f5709c9cda6b002eaa9399e58f7001c514378dc8b7f25efe5e1cc',
    ('structured_parity_0', 'validate_structured'): 'b7099d3f19c85fd5c54ea42a63c03dab1d52be1f3346e0fd669592e656ed8cc9',
    ('structured_parity_9', 'classify'): '792f7ca0a9f1893ec0f48a6e3e0ad9111632cb45aa0c856c167689f68465e41b',
    ('structured_parity_9', 'classify_structured'): '5d39ee469e2b39104cb501341cfff008eb46e451be57cde9538546e28b4a7a88',
    ('structured_parity_9', 'validate'): 'e1fd2f8957de0596b051c83770b2b89bf85748914a559321410f38cc521b0e68',
    ('structured_parity_9', 'validate_structured'): '1850f6813c65604ba58ccc66c6e793ad94b10bdda6ee137b278f7c1fc63a5ccc',
}


@pytest.fixture(scope="module")
def random_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("random")
    files = {}
    for name, struct in _random_cases().items():
        files[name] = root / f"{name}.json"
        files[name].write_text(fixtures.dumps(struct, name=name))
    return files


@pytest.mark.parametrize("command", sorted(VERDICT_COMMANDS))
@pytest.mark.parametrize("name", sorted(_random_cases()))
def test_verdict_output(capsys, random_files, name, command):
    code = main([arg.format(file=random_files[name]) for arg in VERDICT_COMMANDS[command]])
    captured = capsys.readouterr()
    digest = hashlib.sha256(f"{code}\n{captured.out}\n{captured.err}".encode()).hexdigest()
    assert digest == GOLDEN_VERDICTS[(name, command)]
