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
fail Steiner loop-freeness at level 0 and at level 1, or pass it.  The
digests of ``decompose``, ``face``, ``compose``, ``atom``, ``freeness``,
``generate``, ``cells --count-only`` and structured ``cells`` and
``roundtrip``, on globe(3), oriental(3), cube(2) and four structure
fixtures, cover stderr too; they were recorded before excision sorted
its top through the validator's relation builder and sort, and exit
codes 0, 1 and 2 all occur among them.  The ``validate --require``
digests, in both formats, on one structure of each classification, and
the ``generate -o`` digests of the exit code, stdout, stderr and the
written file were recorded before the structure classes lost their
mapping constructor and the family builders their ``bound`` keyword.
The argparse usage errors were pinned before a negative ``-k`` became a
usage error in ``face`` and ``compose``; they pin the exit code, stdout
and stderr's usage line and error prefix, not argparse's wording, which
differs between Python versions.  The ``face``, ``compose``,
``decompose``, ``atom`` and ``morphism apply`` digests of cells of seeded
random weak structures, of mutated cells and of edge cells, in both
formats, cover stderr too; they were recorded before ``morphism apply``
checked a cell as the other cell commands do and before a cell's
boundary text could hold a count past a machine word.
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

pytestmark = pytest.mark.frozen

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
#: The ``apply`` digests were recorded again when a cell naming a
#: generator the source lacks (the oriental(2) 0-cell) began to exit 2.
GOLDEN_MORPHISM = {
    ('additive_top_twice', 'apply'): 'debae1df01e30a81ca4c5b5e9b31360dc461f8ff2fccb89a38ab1f800006b2db',
    ('additive_top_twice', 'apply_structured'): 'a30f5918b7b927b0bd2404fe164d9e2734c5ef1d5b3ac443f0319dca55b344f3',
    ('additive_top_twice', 'compose_after_identity'): '775385cb8cf65260e40276fd2693e8e638206645ff2dcd3ae2fb2b5946df4417',
    ('additive_top_twice', 'compose_before_identity'): '80fa763a140b929f04afc6f123ad499329aa73d75980bcd9a7da113e9013ff43',
    ('additive_top_twice', 'validate'): 'a6e88ceaff2dc7cce4b4b02c357d811a90b0b81b735e9605fc3c860351d51ae8',
    ('additive_top_twice', 'validate_additive'): 'a6e88ceaff2dc7cce4b4b02c357d811a90b0b81b735e9605fc3c860351d51ae8',
    ('additive_top_twice', 'validate_additive_structured'): '0cfafd17edb7409ca4703cd3b44bbdbb493e670aee34d4f2033477b951a549ca',
    ('additive_top_twice', 'validate_structured'): '0cfafd17edb7409ca4703cd3b44bbdbb493e670aee34d4f2033477b951a549ca',
    ('additive_top_twice', 'validate_weak'): 'd6f2285eafd4cea5728f15feb3141066aa674f41543a4d1f780083bc67414281',
    ('additive_top_twice', 'validate_weak_structured'): 'a401d9308e67f7a2740ba39825ba3d1f87e485aa1ff552d707f431a55bdffa6c',
    ('morphism_collapse_globe1', 'apply'): 'cb92e3118dbff4772c55fb7196737635c4e8ee3d28cf57ce37c5c627491c526c',
    ('morphism_collapse_globe1', 'apply_structured'): 'fa8ca3b979c93c9c8fa4c5a38d17c5a5bb6a46f6300f5be0b3aa8c98ed41a00c',
    ('morphism_collapse_globe1', 'compose_after_identity'): 'a74b827659d969906fcd7351b89d74be5a28c981c1261f57571b1304964b9f20',
    ('morphism_collapse_globe1', 'compose_before_identity'): 'ef98e05419fcb95dd54429b5a362d7bac307d4d269ac3f04e2b99e4152809d34',
    ('morphism_collapse_globe1', 'validate'): 'ef9fddfb3f0b95d48b01f59c0e3f08091451ecec9067884759d77f724f65f4d6',
    ('morphism_collapse_globe1', 'validate_additive'): '31cc267148b379528c4e94856a1a94c21e767611314319be2fc27a6ca9b3fd05',
    ('morphism_collapse_globe1', 'validate_additive_structured'): 'e6fc7b169635f852685146ef1265de9823c33ec232927c160346b5a3b1ba92b1',
    ('morphism_collapse_globe1', 'validate_structured'): 'c8f2ffda1262235779cc736677d2d76f5c3f95de9dc2f077b237a1b7dc2919f0',
    ('morphism_collapse_globe1', 'validate_weak'): 'ef9fddfb3f0b95d48b01f59c0e3f08091451ecec9067884759d77f724f65f4d6',
    ('morphism_collapse_globe1', 'validate_weak_structured'): 'c8f2ffda1262235779cc736677d2d76f5c3f95de9dc2f077b237a1b7dc2919f0',
    ('morphism_globe1_to_oriental2', 'apply'): '3f687489bec3d7414b63cef733b121454131756d6c905a4face4ebcc7d77e7b7',
    ('morphism_globe1_to_oriental2', 'apply_structured'): '6ad91a25093a35f03ec4b06ce4cb66be9e3203f990252e9b3be4cc3d3d1e4c33',
    ('morphism_globe1_to_oriental2', 'compose_after_identity'): 'da6e0746c2d9710cb71795403dc42ce458d4c68df77f958ca9e5d2ec6039efc1',
    ('morphism_globe1_to_oriental2', 'compose_before_identity'): 'ef98e05419fcb95dd54429b5a362d7bac307d4d269ac3f04e2b99e4152809d34',
    ('morphism_globe1_to_oriental2', 'validate'): 'ef9fddfb3f0b95d48b01f59c0e3f08091451ecec9067884759d77f724f65f4d6',
    ('morphism_globe1_to_oriental2', 'validate_additive'): '31cc267148b379528c4e94856a1a94c21e767611314319be2fc27a6ca9b3fd05',
    ('morphism_globe1_to_oriental2', 'validate_additive_structured'): 'ce8237e7cdf4fadde392b38074034585c9ef565e26f07c6de1c7e0ea2552d609',
    ('morphism_globe1_to_oriental2', 'validate_structured'): '4883b4445092865469ac259641f7297e6b0bb24214dbdaa5b300264bac0756be',
    ('morphism_globe1_to_oriental2', 'validate_weak'): 'ef9fddfb3f0b95d48b01f59c0e3f08091451ecec9067884759d77f724f65f4d6',
    ('morphism_globe1_to_oriental2', 'validate_weak_structured'): '4883b4445092865469ac259641f7297e6b0bb24214dbdaa5b300264bac0756be',
    ('top_to_01', 'apply'): 'a6b90ec4a4112bf7f9577588b26cdb048863eceea807fed40801d9f0816deeda',
    ('top_to_01', 'apply_structured'): '90cffde16a26b29e3b782438e1c607f8422ac91678c836b6d5a1df077f58c689',
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


# ---------------------------------------------------------------------------
# the cell commands, generate, and the structured cells and roundtrip, on
# families and structure fixtures, in both formats: exit code, stdout, stderr


#: Per structure, three points and two edges: the cells are the path
#: (p0; e0, e1; p2), the 0-cell p0 and a 1-cell whose source point zz
#: the structure lacks; composing edge (p0; e0; p1) with edge (p1; e1;
#: p2) gives the path.  On globe(3), parting_atom and self_loop the
#: edges do not form a path, so the cells are not valid there.
CELL_STRUCTURES = {
    "globe3": (("e0-", "e0+", "e0-"), ("e1-", "e1+")),
    "oriental3": (("0", "1", "2"), ("01", "12")),
    "cube2": (("00", "10", "11"), ("*0", "1*")),
    "weak_not_strong": (("u", "v", "w"), ("a0", "b0")),
    "circle": (("p", "q", "p"), ("a", "b")),
    "self_loop": (("u", "u", "u"), ("a", "a")),
    "parting_atom": (("d0x0", "d0x0", "d0x0"), ("d1x0", "d1x1")),
}
#: Per command, its argv, the runs it folds (None for one run) and its
#: formats: {file} is the structure, {cell}/{first}/{second} cells, {gen}
#: a generator name, {n} the structure's top dimension.
BOTH = ("text", "structured")
CELL_COMMANDS = {
    "decompose": (["decompose", "{file}", "--cell", "{cell}"], "cells", BOTH),
    "face": (["face", "{file}", "--cell", "{cell}", "-k", "0", "--sign", "{sign}"], "faces", BOTH),
    "compose": (["compose", "{file}", "--cells", "{first}", "{second}", "-k", "0"], "pairs", BOTH),
    "atom": (["atom", "{file}", "{gen}"], "gens", BOTH),
    "freeness": (["freeness", "{file}", "--max-dim", "{n}"], None, BOTH),
    "cells_count_only": (["cells", "{file}", "--max-dim", "{n}", "--count-only"], None, BOTH),
    "cells": (["cells", "{file}", "--max-dim", "{n}"], None, ("structured",)),
    "roundtrip": (["roundtrip", "{file}"], None, ("structured",)),
}
#: generate: three families and a size out of range.
GENERATE_CASES = [("globe", 3), ("oriental", 3), ("cube", 2), ("globe", -1)]

#: The ``decompose`` digests were recorded again when a cell naming a
#: generator the structure lacks began to exit 2, as it does in ``face``,
#: ``compose`` and ``atom``.  Those of ``circle`` and ``parting_atom``,
#: which are not weakly loop-free and not globular, were recorded again
#: when excision began to resolve the cell's generators before it checks
#: the structure, so that such a cell exits 2 on every structure.  The
#: ``face`` digests were recorded again when ``face -k 0`` on a 0-cell
#: began to print ``cannot take face: ...`` and exit 1, as ``decompose``
#: on a 0-cell and ``compose`` with an index out of range do.
GOLDEN_CELL_COMMANDS = {
    ('circle', 'atom', 'structured'): '15a0f935fcc87d7b1974d32137892e4e6354c0ba2e081b14b3b94ad243c0c6f4',
    ('circle', 'atom', 'text'): '2a01400b1097ff5ce233a876d7430af29747d080e28212d1a1fd6828437970fc',
    ('circle', 'cells', 'structured'): 'ac963d88ed2a4e1e438a5b8ce5cd26846f060f6844ac3888fdfba28ab2a3bb2a',
    ('circle', 'cells_count_only', 'structured'): 'ac963d88ed2a4e1e438a5b8ce5cd26846f060f6844ac3888fdfba28ab2a3bb2a',
    ('circle', 'cells_count_only', 'text'): 'ac963d88ed2a4e1e438a5b8ce5cd26846f060f6844ac3888fdfba28ab2a3bb2a',
    ('circle', 'compose', 'structured'): 'b70b69a754c60a607f421a9b5b0d45ab9bfebfa31c9555de5d85646701677511',
    ('circle', 'compose', 'text'): '05c675588301b169ea4ee5256584c7f24888f5ce5fcf8b4b4fbd725fb9964a87',
    ('circle', 'decompose', 'structured'): 'b4ae8e5e5458e4232ce095877aab60ef12829b0fefe2c6f7a70d7512dade2084',
    ('circle', 'decompose', 'text'): 'b4ae8e5e5458e4232ce095877aab60ef12829b0fefe2c6f7a70d7512dade2084',
    ('circle', 'face', 'structured'): '73c717c21702d5e0b1371fa3b0cdee5992980b6953e80887b61e462c2b049d20',
    ('circle', 'face', 'text'): 'a03530c15c344131d1535fca107c18bd303df6fa7f2217e60fe90c27d05a7486',
    ('circle', 'freeness', 'structured'): '40716f9e85c27309030a00a1bdb666e31a87b79253b330e2b47beac717f8cf33',
    ('circle', 'freeness', 'text'): '40716f9e85c27309030a00a1bdb666e31a87b79253b330e2b47beac717f8cf33',
    ('circle', 'roundtrip', 'structured'): '873bb132616c2469e4c4cd770b5095caa64efe753f0d3df2f77e56e6db989bdc',
    ('cube2', 'atom', 'structured'): 'ccd32c8297305b6c17c3adef670dbdc535f10c04854825d076bc9ff94157340c',
    ('cube2', 'atom', 'text'): '14e9044bab86fb91bb889831572ade7e518a1c57e05fdbd642e4a425ac42fbd9',
    ('cube2', 'cells', 'structured'): 'dd5147f874818ecc34e4e44c3f0c9f70590e51ca23be4e8839f27b0646985b93',
    ('cube2', 'cells_count_only', 'structured'): '5007e334b5a647dd6b332ce95b009bafc3c8f4e2418f22a34e2577cce36f18cf',
    ('cube2', 'cells_count_only', 'text'): '9efcea4e148d9711e439ab5418e4eed1489e8364a81daeb1c8c6c027e994b9af',
    ('cube2', 'compose', 'structured'): 'a1e94e3747b66c10be1ee4c7a85b35b3fa6340c9dd2b3d99105971981ed5f8d5',
    ('cube2', 'compose', 'text'): '2479bab9d7ef6eedbdf50fd1ac2b1d23829689b3162d35ee7d07e67a0e1d33f8',
    ('cube2', 'decompose', 'structured'): '741921c5d16909c0a355835c74f84c98a58dee455cfae4b9754fffe7af0eec36',
    ('cube2', 'decompose', 'text'): '678f5eac641cb8f7ff09e559c7f316a7237b6977cf9752c659234b60315c7bc9',
    ('cube2', 'face', 'structured'): '6f24635465533306c2b13c924e11b2800ec053988752ae657b1d746db6deb278',
    ('cube2', 'face', 'text'): 'e99115c7537fb345c5ddc826b8da2d58a9a429ed2a68425ff6930428521a40f0',
    ('cube2', 'freeness', 'structured'): '6d5ac162da992372ac687990a77b058986b5278de993f4fa1a6be37cc2836d1c',
    ('cube2', 'freeness', 'text'): '19e77bb64c37345738e185610c3cae8fb9f353d12e9914ba261380edb8a89e70',
    ('cube2', 'generate', 'structured'): 'fbc15749315a48dda7bcd7c94b49bcfafc7e6d667fef34c8b8f2f3e47c7d4eaf',
    ('cube2', 'generate', 'text'): 'fbc15749315a48dda7bcd7c94b49bcfafc7e6d667fef34c8b8f2f3e47c7d4eaf',
    ('cube2', 'roundtrip', 'structured'): 'a698ad4f1c5a77b01dfda7b5215d7d3eb49e6f3bae439102e94c0eeaa98bacf1',
    ('globe-1', 'generate', 'structured'): 'ad446861dd70c5e2ccc10efe011d0fdbb6ffc02808fa5832bd374a9e01a5f93b',
    ('globe-1', 'generate', 'text'): 'ad446861dd70c5e2ccc10efe011d0fdbb6ffc02808fa5832bd374a9e01a5f93b',
    ('globe3', 'atom', 'structured'): 'f94a8f611f0d78dcdea699838adc5fbc75aaef100c05ce8095c7769c4042196e',
    ('globe3', 'atom', 'text'): '4e88e0c609a1d6cc06ee1ef9c64305893a1531f8f63e5913012360ca573d4de9',
    ('globe3', 'cells', 'structured'): 'b9d577b41be8758c5a908c3d53761afdbbd9d87f4f0f0b58544d839a2f338b04',
    ('globe3', 'cells_count_only', 'structured'): 'f044c8c546b99f64a644a15b8dd6b0163ac81548b6945072c06e6671b4a2cdc6',
    ('globe3', 'cells_count_only', 'text'): '04a2c8d83c4d8f1ac0869304715151d962c06e44e604da608216e3aa59bcc15c',
    ('globe3', 'compose', 'structured'): 'b7ce72e7eb450a4858c7fa5ad0dd959860824b9f934cbe253e80df5ee486ed49',
    ('globe3', 'compose', 'text'): 'b7ce72e7eb450a4858c7fa5ad0dd959860824b9f934cbe253e80df5ee486ed49',
    ('globe3', 'decompose', 'structured'): 'b990556c5a8d5cefad449dd314af2c8f69dd1e1dc0663b6496c8169080362bdd',
    ('globe3', 'decompose', 'text'): 'b990556c5a8d5cefad449dd314af2c8f69dd1e1dc0663b6496c8169080362bdd',
    ('globe3', 'face', 'structured'): 'ac8e349ef8946eca6891d9fd7bb9b4bd651cc97323c5a70c12f93bb797cbcbfa',
    ('globe3', 'face', 'text'): 'ac8e349ef8946eca6891d9fd7bb9b4bd651cc97323c5a70c12f93bb797cbcbfa',
    ('globe3', 'freeness', 'structured'): 'b12c45da84e5be581e11e7157a8266528a38e9a1e66d67db4ff121c98c5bf6dd',
    ('globe3', 'freeness', 'text'): 'cb3b1fc69969ff3f3b2202fe6f1e7291806e77db2373c901bbe1fec8f1b4e908',
    ('globe3', 'generate', 'structured'): '98d2c3d0a58b07c068d76861333e4d526b4c8c5c7536d690b2b9d2e4e044b578',
    ('globe3', 'generate', 'text'): '98d2c3d0a58b07c068d76861333e4d526b4c8c5c7536d690b2b9d2e4e044b578',
    ('globe3', 'roundtrip', 'structured'): '79121257dc4a071ec3ace3f181770cedf7cab9a8d7390c8b75f68ecfed7c3c66',
    ('oriental3', 'atom', 'structured'): '19e35856c54b58aa2eeb2158ee9d200ae3e34f9ae8d57a0da950caac9b555c43',
    ('oriental3', 'atom', 'text'): 'eee1119e2c8a82bec26bb609151dedf40973cfb6c5b0f96f7a1155d04a11d1c0',
    ('oriental3', 'cells', 'structured'): 'a5df88e253131c0a51e1a8cd6427d0ee2dbfbd5f6d8db70aa4253657f6384115',
    ('oriental3', 'cells_count_only', 'structured'): '5d7da8256e8a7ed237270f90b0ffda79807ecf7191da41b466e9ada384c1a061',
    ('oriental3', 'cells_count_only', 'text'): '9e02b4fe0c2fd4f8d96e221c505df5528cf3f6f79b17e302dbfbd9cd92ce3ff3',
    ('oriental3', 'compose', 'structured'): 'e56459c7046068bff4718213f357e361b4d31d2243ddb66baff05352970c4948',
    ('oriental3', 'compose', 'text'): '04654e506be905c521d63dd161d379f73047364ca8d8d27f67a362d054e6d47a',
    ('oriental3', 'decompose', 'structured'): '09f77fe75effc902cf53a7212314be13cadd42a90835fdba83d885724532d68a',
    ('oriental3', 'decompose', 'text'): '0447bae86a2bd7391371f055fe3072bef3c1f5c5d23f523e19f1bdf1016fbc62',
    ('oriental3', 'face', 'structured'): '63d6a401b00006097c0011b14b95c5d8943426465b3d1fa4367dd9e01b3ab569',
    ('oriental3', 'face', 'text'): '3bc22d44ca9a8940bdbedc0560fa0e7ba8315d12414c86999f1d32c70f47f7d5',
    ('oriental3', 'freeness', 'structured'): 'ce098f9a7a858eb854edf2e8426e1a7f51314e38de53d48d343b3256d1b34031',
    ('oriental3', 'freeness', 'text'): '240e41059dd6e58f72a8eb94c7f2011609dd385d60884a087a87b3664681f155',
    ('oriental3', 'generate', 'structured'): '07983b94f64cca82abdf339a88ae8f300809752583a29e544f462f8aaae0985d',
    ('oriental3', 'generate', 'text'): '07983b94f64cca82abdf339a88ae8f300809752583a29e544f462f8aaae0985d',
    ('oriental3', 'roundtrip', 'structured'): '7d4beef544e3ab0076b6f9fbb23695b4df4cfbf74716ff2dedb77986e4d97e32',
    ('parting_atom', 'atom', 'structured'): '3842281f31db3f83f9f84a848d05c6ff0b4f334807515eafcedb6e07030c65d1',
    ('parting_atom', 'atom', 'text'): '52452a3c6efd8c56a4c8ed00c7da3e3c8234052fa08f9518cf7c7030d6d7bf5a',
    ('parting_atom', 'cells', 'structured'): '601e7a431d91e5909a3c5527594fd0e05b1fb207a1943ecfa26f9776fa51b1c7',
    ('parting_atom', 'cells_count_only', 'structured'): '601e7a431d91e5909a3c5527594fd0e05b1fb207a1943ecfa26f9776fa51b1c7',
    ('parting_atom', 'cells_count_only', 'text'): '601e7a431d91e5909a3c5527594fd0e05b1fb207a1943ecfa26f9776fa51b1c7',
    ('parting_atom', 'compose', 'structured'): 'fe0d954b20908390b8ce2a8882776c3fff0e62d2fd4ce73c6eba7aadc21eba6a',
    ('parting_atom', 'compose', 'text'): 'fe0d954b20908390b8ce2a8882776c3fff0e62d2fd4ce73c6eba7aadc21eba6a',
    ('parting_atom', 'decompose', 'structured'): '46ac9aa94933956a77768040c49a668bba1ecb91a11b775459c48d89bb974ea9',
    ('parting_atom', 'decompose', 'text'): '46ac9aa94933956a77768040c49a668bba1ecb91a11b775459c48d89bb974ea9',
    ('parting_atom', 'face', 'structured'): '3eae87ede082f2fe2ba2a1d5d1d375b9c745a89c02b7b1843de3abbd54483d39',
    ('parting_atom', 'face', 'text'): '3eae87ede082f2fe2ba2a1d5d1d375b9c745a89c02b7b1843de3abbd54483d39',
    ('parting_atom', 'freeness', 'structured'): 'c126af510bd4e6266ca20923c3185f84059068a73b274b368d628ee179f86a35',
    ('parting_atom', 'freeness', 'text'): 'c126af510bd4e6266ca20923c3185f84059068a73b274b368d628ee179f86a35',
    ('parting_atom', 'roundtrip', 'structured'): '01217117aca5f64b1140dad9c685c78dddd420487f30bf93b2b46e09bacd755a',
    ('self_loop', 'atom', 'structured'): '1d02082b4573a621bdb33fa5ac29234647c4a2cf894db2e2eb75b900c9d9414a',
    ('self_loop', 'atom', 'text'): 'b46b53b8220a0ca985518d5e8c6e5f7a2d6772ae7e1132723b4542e0e40f31c3',
    ('self_loop', 'cells', 'structured'): '601e7a431d91e5909a3c5527594fd0e05b1fb207a1943ecfa26f9776fa51b1c7',
    ('self_loop', 'cells_count_only', 'structured'): '601e7a431d91e5909a3c5527594fd0e05b1fb207a1943ecfa26f9776fa51b1c7',
    ('self_loop', 'cells_count_only', 'text'): '601e7a431d91e5909a3c5527594fd0e05b1fb207a1943ecfa26f9776fa51b1c7',
    ('self_loop', 'compose', 'structured'): '4216b7e3a93f397770c1659d2bb42563c41ea6a710af6c25afdec4ed3e96f7b6',
    ('self_loop', 'compose', 'text'): '4216b7e3a93f397770c1659d2bb42563c41ea6a710af6c25afdec4ed3e96f7b6',
    ('self_loop', 'decompose', 'structured'): '04054342f76c3289da4a2940ab204592167dc2e866e0349a2aa6e741474296d6',
    ('self_loop', 'decompose', 'text'): '4af320247ce6029ea9eab2c3391112067031806ffdc6ba1a5f1e62aca1403389',
    ('self_loop', 'face', 'structured'): '2c421317e696592ada96ba0a078029a5b701f9f58957cc1043545baa7f60b98e',
    ('self_loop', 'face', 'text'): 'a57b17b2f999b5b39a84c2db30f3ec015bd4ae431dc33b9897baeb48cc1a232f',
    ('self_loop', 'freeness', 'structured'): 'c126af510bd4e6266ca20923c3185f84059068a73b274b368d628ee179f86a35',
    ('self_loop', 'freeness', 'text'): 'c126af510bd4e6266ca20923c3185f84059068a73b274b368d628ee179f86a35',
    ('self_loop', 'roundtrip', 'structured'): 'e12958f110642d6f4580432faddfd50621d86ee36634988a37c6654b88b0487d',
    ('weak_not_strong', 'atom', 'structured'): 'bd9ce59451d5b5bf18c34338a66bd53a59d9000d7c46e4bfe6c3264649d0866f',
    ('weak_not_strong', 'atom', 'text'): '09ce7caa8b0b49e54bb00a10490188f9e8bc04ed1e3846f95f2c4ab68ad1e751',
    ('weak_not_strong', 'cells', 'structured'): '5c79d739c6c283366f9a893181ae070d25a26bed2e9be520b8d13a6ce64b15bd',
    ('weak_not_strong', 'cells_count_only', 'structured'): 'c84c9424889535cc7a5a626397c7b016903e256b6108bcf8d22114bd258242e0',
    ('weak_not_strong', 'cells_count_only', 'text'): 'ec4f4eaa4006cc908c6a3394acaa127d50204cacfb766d474f6bf114537a8c2c',
    ('weak_not_strong', 'compose', 'structured'): '9521d51c8933a6db243960c66a51f8cb41879a355afcc4026d9bd8b10cafe5f3',
    ('weak_not_strong', 'compose', 'text'): 'ff110b5671105aa5566eaa71914d4b217dfc973cd1c0782f31b9ea3108e7930a',
    ('weak_not_strong', 'decompose', 'structured'): 'c748844bbe3d3eeedd8ba2c935fb567f2af0ca0dbc866075a84b8dca6f42d9ad',
    ('weak_not_strong', 'decompose', 'text'): 'ed26749b9fc47136e06ef0eebe2dd606f45aad04ebfd7427a1c2e346b2c43851',
    ('weak_not_strong', 'face', 'structured'): '6e4b1198e3a900728e427f194541080d2ff952b85dd9ad6179d8b1bccdd32f71',
    ('weak_not_strong', 'face', 'text'): '4f462da95a5b6bc5adf63d59361d6b7b4c015f90b6efbf77ee371b129c394696',
    ('weak_not_strong', 'freeness', 'structured'): 'a84def5cdeb578075698118e99d434d919103c51b336b3f38f0c07b03752bea5',
    ('weak_not_strong', 'freeness', 'text'): '21c453c4ba2d20294e8caecd395b2ac03f6cc5e325051f587718799808910f5d',
    ('weak_not_strong', 'roundtrip', 'structured'): 'af28eef452215ae948df000bbd52d49558046110c9c4deea919bf356015b866e',
}


def _structure_files(root):
    """Per structure, its fixture file, its cell files, its generator
    names to take atoms of and its top dimension."""
    from paritykit.cells import CellTable
    from paritykit.multiset import GeneratorId, Multiset

    def column(dim, *names):
        counts: dict = {}
        for name in names:
            counts[GeneratorId(dim, name)] = counts.get(GeneratorId(dim, name), 0) + 1
        return Multiset(dim, counts)

    def cell(name, neg, pos):
        path = root / f"{name}.json"
        table = CellTable([column(k, *row) for k, row in enumerate(neg)], [column(k, *row) for k, row in enumerate(pos)])
        path.write_text(fixtures.dumps(table, name=name))
        return path

    structures = {"globe3": family("globe", 3), "oriental3": family("oriental", 3), "cube2": family("cube", 2)}
    out = {}
    for name, ((p0, p1, p2), (e0, e1)) in CELL_STRUCTURES.items():
        if name in structures:
            struct, file = structures[name], root / f"{name}.json"
            file.write_text(fixtures.dumps(struct, name=name))
        else:
            file = FIXTURE_DIR / f"{name}.json"
            struct = fixtures.loads(file.read_text(encoding="utf-8")).value
        path = cell(f"{name}-path", [[p0], [e0, e1]], [[p2], [e0, e1]])
        zero = cell(f"{name}-zero", [[p0]], [[p0]])
        foreign = cell(f"{name}-foreign", [["zz"], [e0]], [[p1], [e0]])
        first = cell(f"{name}-first", [[p0], [e0]], [[p1], [e0]])
        second = cell(f"{name}-second", [[p1], [e1]], [[p2], [e1]])
        out[name] = {
            "file": file,
            "n": struct.max_dim,
            "cells": [{"cell": c} for c in (path, zero, foreign)],
            "faces": [{"cell": c, "sign": s} for c in (path, zero, foreign) for s in ("source", "target")],
            "pairs": [{"first": a, "second": b} for a, b in ((first, second), (second, first), (zero, foreign))],
            "gens": [{"gen": g} for g in (struct.generators(struct.max_dim)[-1].name, p0, "zz")],
        }
    return out


@pytest.fixture(scope="module")
def structure_files(tmp_path_factory):
    return _structure_files(tmp_path_factory.mktemp("cell-commands"))


def cell_command_digest(capsys, template, runs, **fields) -> str:
    """SHA-256 of the exit code, stdout and stderr of each run."""
    parts = []
    for run in runs:
        code = main([arg.format(**fields, **run) for arg in template])
        captured = capsys.readouterr()
        parts.append(f"{code}\n{captured.out}\n{captured.err}")
    return hashlib.sha256("\x00".join(parts).encode()).hexdigest()


def _cell_command_cases():
    return [(name, command, style) for name in CELL_STRUCTURES
            for command, (_, _, styles) in CELL_COMMANDS.items() for style in styles]


@pytest.mark.parametrize("name, command, style", _cell_command_cases())
def test_cell_command_output(capsys, structure_files, name, command, style):
    files = structure_files[name]
    template, runs, _ = CELL_COMMANDS[command]
    template = template + (["--format", "structured"] if style == "structured" else [])
    digest = cell_command_digest(capsys, template, files[runs] if runs else [{}], file=files["file"], n=files["n"])
    assert digest == GOLDEN_CELL_COMMANDS[(name, command, style)]


@pytest.mark.parametrize("style", ["text", "structured"])
@pytest.mark.parametrize("family_name, n", GENERATE_CASES)
def test_generate_output(capsys, family_name, n, style):
    template = ["generate", "--family", family_name, "--n", str(n)]
    template += ["--format", "structured"] if style == "structured" else []
    digest = cell_command_digest(capsys, template, [{}])
    assert digest == GOLDEN_CELL_COMMANDS[(f"{family_name}{n}", "generate", style)]


# ---------------------------------------------------------------------------
# every command that reads a cell or a generator, on cells of seeded random
# weak structures, on mutated cells of the cell-contract fuzz bases and on
# edge cells, in both formats: exit code, stdout and stderr


#: Per command, its argv: {file} is the structure, {cell}/{first}/{second}
#: cells, {sign} a face sign, {gen} a generator name and {morphism} the
#: structure's identity morphism.
ENTRY_COMMANDS = {
    "face": ["face", "{file}", "--cell", "{cell}", "-k", "0", "--sign", "{sign}"],
    "compose": ["compose", "{file}", "--cells", "{first}", "{second}", "-k", "0"],
    "decompose": ["decompose", "{file}", "--cell", "{cell}"],
    "atom": ["atom", "{file}", "{gen}"],
    "apply": ["morphism", "apply", "{morphism}", "--cell", "{cell}"],
}
#: random_structured_parity draws by seed, each a 2-dimensional parity
#: complex, the last read in its additive view.
RANDOM_WEAK = {"random_parity_0": (0, False), "random_parity_8": (8, False), "random_additive_5": (5, True)}
#: Mutated cells: the seed and how many the runs fold.
MUTATION_SEED, MUTATIONS = 30, 24


def _entry_inputs():
    """Per case, (structure, cell tables or None, [(structure, mutated cell
    document, mutated second document)] or None).  The edge cases are the
    0-cells ({0, 1}; {0, 1}) and ({}; {}) of oriental(1), which have
    augmentation 2 and 0, and, over the additive structure a: u -> 2v,
    the cell (u:MAX, a:MAX; v, a:MAX), whose boundary text counts v
    twice MAX_COUNT times."""
    from paritykit import cells
    from paritykit.generators import oriental
    from paritykit.multiset import MAX_COUNT, Multiset
    from paritykit.parity_core import AdditiveParityStructure
    from test_cli import TestCellContractFuzz

    out = {}
    for name, (seed, additive) in RANDOM_WEAK.items():
        struct = randstruct.random_structured_parity(random.Random(seed))
        struct = struct.to_additive() if additive else struct
        enumerated = cells.enumerate_cells(struct, struct.max_dim)
        out[name] = (struct, random.Random(seed).sample(enumerated, 5), None)
    o1 = oriental(1)
    p0, p1 = (o1.gen(n) for n in "01")
    two, empty = Multiset(0, {p0: 1, p1: 1}), Multiset(0)
    out["oriental1_edges"] = (o1, [cells.CellTable([two], [two]), cells.CellTable([empty], [empty])], None)
    big = AdditiveParityStructure.build([("u", 0, [], []), ("v", 0, [], []), ("a", 1, ["u"], [("v", 2)])])
    u, v, a = (big.gen(n) for n in "uva")
    top = Multiset(1, {a: MAX_COUNT})
    out["overflow"] = (big, [cells.CellTable([Multiset(0, {u: MAX_COUNT}), top], [Multiset.of(v), top])], None)
    rng, bases, mutated = random.Random(MUTATION_SEED), TestCellContractFuzz.documents(), []
    for _ in range(MUTATIONS):
        text, docs = rng.choice(bases)
        first, second = (json.loads(json.dumps(rng.choice(docs))) for _ in range(2))
        TestCellContractFuzz.mutate(first, rng)
        TestCellContractFuzz.mutate(second, rng)
        mutated.append((fixtures.loads(text).value, first, second))
    out["mutated"] = (None, None, mutated)
    return out


def _entry_files(root):
    """Per case, per command, the argv fields of each run that it folds."""
    from paritykit.morphisms import identity_morphism

    written: dict = {}

    def write(name, text):
        path = root / f"{name}.json"
        path.write_text(text)
        return path

    def structure(struct):
        """The structure's file and its identity morphism's file, each written once."""
        key = fixtures.dumps(struct, name="s")
        if key not in written:
            k = len(written)
            morphism = fixtures.dumps(identity_morphism(struct, "additive"), name="id")
            written[key] = {"file": write(f"s{k}", key), "morphism": write(f"id{k}", morphism)}
        return written[key]

    out = {}
    for name, (struct, tables, mutated) in _entry_inputs().items():
        runs = {command: [] for command in ENTRY_COMMANDS}
        if mutated is None:
            base = structure(struct)
            paths = [write(f"{name}-c{k}", fixtures.dumps(t, name=f"c{k}")) for k, t in enumerate(tables)]
            for path, nxt in zip(paths, paths[1:] + paths[:1]):
                runs["face"] += [{**base, "cell": path, "sign": s} for s in ("source", "target")]
                runs["compose"].append({**base, "first": path, "second": nxt})
                runs["decompose"].append({**base, "cell": path})
                runs["apply"].append({**base, "cell": path})
            names = [g.name for g in struct.all_generators()]
            runs["atom"] = [{**base, "gen": g} for g in [*names[:: max(1, len(names) // 3)], "zz"]]
        else:
            for k, (struct, first, second) in enumerate(mutated):
                base = structure(struct)
                one, two = (write(f"{name}-{k}-{i}", json.dumps(doc)) for i, doc in enumerate((first, second)))
                sign = ("source", "target")[k % 2]
                runs["face"].append({**base, "cell": one, "sign": sign})
                runs["compose"].append({**base, "first": one, "second": two})
                runs["decompose"].append({**base, "cell": one})
                runs["apply"].append({**base, "cell": one})
                runs["atom"].append({**base, "gen": next(iter(struct.all_generators())).name})
        out[name] = runs
    return out


@pytest.fixture(scope="module")
def entry_files(tmp_path_factory):
    return _entry_files(tmp_path_factory.mktemp("cell-entry-points"))


#: The ``morphism apply`` digests of the edge cells and the ``face``,
#: ``compose`` and ``decompose`` digests of the overflow cell were recorded
#: again when ``morphism apply`` began to check a cell as the other cell
#: commands do and a cell's boundary text began to be written from its row.
GOLDEN_ENTRY = {
    ('random_parity_0', 'apply', 'text'): 'afdd115fe456f8eda3b3be79a19117955abf16479cb7f20ca75dae5c90505fea',
    ('random_parity_0', 'apply', 'structured'): 'fd10ead8b12351f36c3f6b58d874b0ee4aa0d915e9849d7b0d0cc4d1dad828e1',
    ('random_parity_0', 'atom', 'text'): '6006e609fa498733547256175f8699b4ee50e12e33d803aa8721e862eb7fb26c',
    ('random_parity_0', 'atom', 'structured'): '0cf42daf4b359242eaa0d88f006949bc06d620d999d18b904acab6f021e33bef',
    ('random_parity_0', 'compose', 'text'): 'a506fda4a93f417b95a4a76bb6d984fcd8bdea018ba70f426663e057c09c2118',
    ('random_parity_0', 'compose', 'structured'): 'f576b0a5c16071804e9d76c847289fac86aaa109fefc994019f94cc92313d84c',
    ('random_parity_0', 'decompose', 'text'): '7496b52e517b242de6b4285b06929e56ecea8ed478044271c836939c93dcc820',
    ('random_parity_0', 'decompose', 'structured'): '2d9017b5670fc73a2c1ac591cbda2a2122e98e141c809f580a63ecb51f126acb',
    ('random_parity_0', 'face', 'text'): 'ba17be417d876288b2682bae8eb80947f98ff45a4e0e3ed261ddce528d02277b',
    ('random_parity_0', 'face', 'structured'): 'f31ae42b4a36b856f8a1255f93e4ddf6b06c20846c0440acecea40cd4f61fc7c',
    ('random_parity_8', 'apply', 'text'): '0dfc9c38418ed1627a5b4d4cfe381f688557b534ad5726cf8f850eaefbf9093d',
    ('random_parity_8', 'apply', 'structured'): 'f233dc794870b28cbcc798000d77b12c295b171e780300120e4cd96d59af3e14',
    ('random_parity_8', 'atom', 'text'): '9666fe8045156f5a23adefee27582592dcb24a9c4dc5d67bab75b9496a182634',
    ('random_parity_8', 'atom', 'structured'): '5b4ed1ac4f3fbaf903451bd874e908f82550d829f5c7c65f29be618a9e833dc0',
    ('random_parity_8', 'compose', 'text'): 'bcf2db37ad41d061319dc88d1ad79df31231190faccb0e45f18cf75cc5735a91',
    ('random_parity_8', 'compose', 'structured'): 'bcf2db37ad41d061319dc88d1ad79df31231190faccb0e45f18cf75cc5735a91',
    ('random_parity_8', 'decompose', 'text'): 'eb4c054af88f578f7346f254925ba46a31a1eccb36abf81ee13d3e334196c487',
    ('random_parity_8', 'decompose', 'structured'): '2912687276aeacb89f8be5ea71e5848f6ee48182b09a6af68c1a806f945cf0b8',
    ('random_parity_8', 'face', 'text'): '265a3b46e81eac173946364f2b25053579d973cd742e352e6c035f67b69d719c',
    ('random_parity_8', 'face', 'structured'): '2ef0dd5a2759ef334eedad3d09395c2fc7b6c948244a6dbd33d7ebf781519636',
    ('random_additive_5', 'apply', 'text'): '5cdef288ad603f385c2c3e279556815a99a2d65e710734ed46e77ea6869f111d',
    ('random_additive_5', 'apply', 'structured'): 'dce3dad6fece75e949b10256a17d7650fa2641dc4bce77c996bf29a4a1c9133c',
    ('random_additive_5', 'atom', 'text'): '4d2880fe0b32c7610ef4fb6de12f076f829c2e509f2c424d833e8819a2e44dd5',
    ('random_additive_5', 'atom', 'structured'): 'e311e8c0026e1f5fe1f9c3ed1a3f396d10569232504d86e8ab18e8b6e915ee32',
    ('random_additive_5', 'compose', 'text'): 'acfdbf4e27ef469059ecfa1cf82ccabdf9603356133ca3532ef6bd907ecd6cfc',
    ('random_additive_5', 'compose', 'structured'): 'acfdbf4e27ef469059ecfa1cf82ccabdf9603356133ca3532ef6bd907ecd6cfc',
    ('random_additive_5', 'decompose', 'text'): '6baa603217c705c59d3858bb37406dbcd8e862ce1f99c81894004acf825eb231',
    ('random_additive_5', 'decompose', 'structured'): '47254fde0991b106c1a727ba932b99668c5f101328905cd2a42b5a0440d4daa7',
    ('random_additive_5', 'face', 'text'): 'f2b09c5c859b6735ef9255ca3584fd9663fbc5f933ed70f6c7fec6926fdea211',
    ('random_additive_5', 'face', 'structured'): '1a3c7a8268387edbfca5b986456255f78b72c4e65dd7c576a3d88fdf4685a3f5',
    ('oriental1_edges', 'apply', 'text'): '4ec90239bb060e04104c0ca5d2f9d7e459c307955f700928950b2898ca34a034',
    ('oriental1_edges', 'apply', 'structured'): '4ec90239bb060e04104c0ca5d2f9d7e459c307955f700928950b2898ca34a034',
    ('oriental1_edges', 'atom', 'text'): '6482458b2f12b9ffb375fbd8f76c3cd9365850080cd99d7740531fdcdba0805d',
    ('oriental1_edges', 'atom', 'structured'): '5669aeca5d13f64ea7a89501012243792e4ea7cded5c63fd1cfe215c6a4cdf68',
    ('oriental1_edges', 'compose', 'text'): '1f121f683a8bd2e11e98f97bf65c8a7c81d9cb9994e0c7b33740f8bd559eaae0',
    ('oriental1_edges', 'compose', 'structured'): '1f121f683a8bd2e11e98f97bf65c8a7c81d9cb9994e0c7b33740f8bd559eaae0',
    ('oriental1_edges', 'decompose', 'text'): '535591c4ba72ac1b2389cfb92dc6611e0b08c9782e9d56eba464c4c68a4287f1',
    ('oriental1_edges', 'decompose', 'structured'): '535591c4ba72ac1b2389cfb92dc6611e0b08c9782e9d56eba464c4c68a4287f1',
    ('oriental1_edges', 'face', 'text'): '65a684acc0c09e0684e13cce1ad23dc4ddf8512af6b8f29e520e96322bf01697',
    ('oriental1_edges', 'face', 'structured'): '65a684acc0c09e0684e13cce1ad23dc4ddf8512af6b8f29e520e96322bf01697',
    ('overflow', 'apply', 'text'): 'b61dbbc12354236dcecb3855e5063d0d093828127c4971393558c5ca75297df4',
    ('overflow', 'apply', 'structured'): 'b61dbbc12354236dcecb3855e5063d0d093828127c4971393558c5ca75297df4',
    ('overflow', 'atom', 'text'): 'ec4a586c1d5b6c5f6ba087c865d37dd8cf331e1082099357156d08eb9a96ebfe',
    ('overflow', 'atom', 'structured'): '9d83c342005e4aff09ca545a4c247b8c652e9577df54b090df5dfa2da86ff252',
    ('overflow', 'compose', 'text'): '05b397f71ed2da06dd8b0395c7ab7b5d8f68ae2311fb7fa541ca2eedc33d85d6',
    ('overflow', 'compose', 'structured'): '05b397f71ed2da06dd8b0395c7ab7b5d8f68ae2311fb7fa541ca2eedc33d85d6',
    ('overflow', 'decompose', 'text'): '8ddbc3da363a9cde08d3085f9abc40bb484f1485abad67cebd702512bfc55846',
    ('overflow', 'decompose', 'structured'): '8ddbc3da363a9cde08d3085f9abc40bb484f1485abad67cebd702512bfc55846',
    ('overflow', 'face', 'text'): 'd86986a61157fd9607a73c872a7b9e6d5274932fbea414de9db0931abaa75cc6',
    ('overflow', 'face', 'structured'): 'd86986a61157fd9607a73c872a7b9e6d5274932fbea414de9db0931abaa75cc6',
    ('mutated', 'apply', 'text'): '8a3aec1dec5b37023988644d273aae649a337ca1a01729da28a2991286060a74',
    ('mutated', 'apply', 'structured'): '9a088bc8348d1a0162c1c03916d5345bdc11dce6fec48a1898489a9f5be51b6e',
    ('mutated', 'atom', 'text'): 'a89101d26f9a760ef815049dc9fdf9e668a61233041757dfd99e1f2c8036ce6f',
    ('mutated', 'atom', 'structured'): '74746b8cbcc26092f60eebf8f708c0e3d0a1190bc958a018e3aafa7ce198ca17',
    ('mutated', 'compose', 'text'): '65477c8f912655342d2452b5beabd1188c57c84d8a5b912b508b9fa9893cefc0',
    ('mutated', 'compose', 'structured'): '65477c8f912655342d2452b5beabd1188c57c84d8a5b912b508b9fa9893cefc0',
    ('mutated', 'decompose', 'text'): '399571f321ba344f66d74ca56ee00c88d81dc279b2508ef3822f1ba83c5c6d1d',
    ('mutated', 'decompose', 'structured'): '939b1a236b89cf27764e5632de4e0bf7b8e14611d944ec167f3be62816ddddff',
    ('mutated', 'face', 'text'): 'a4b3665ed3fa50f397c8bdbe51887dba4375c3b0fde64653454096fd809aced2',
    ('mutated', 'face', 'structured'): 'b70d31de94e114e5338e09c21d21654738e0b55d8fbb0782c1a7da8ef29a5d2f',
}


@pytest.mark.parametrize("style", BOTH)
@pytest.mark.parametrize("command", sorted(ENTRY_COMMANDS))
@pytest.mark.parametrize("name", [*RANDOM_WEAK, "oriental1_edges", "overflow", "mutated"])
def test_cell_entry_output(capsys, entry_files, name, command, style):
    template = ENTRY_COMMANDS[command] + (["--format", "structured"] if style == "structured" else [])
    digest = cell_command_digest(capsys, template, entry_files[name][command])
    assert digest == GOLDEN_ENTRY[(name, command, style)]


# ---------------------------------------------------------------------------
# validate --require, in both formats, and generate -o: exit code, stdout,
# stderr and the written file


#: One structure per classification: oriental(3) is a parity complex,
#: weak_not_strong a weak parity complex only, circle an additive parity
#: complex only and self_loop a parity structure only, so each level is
#: met by some and failed by the others.
REQUIRE_STRUCTURES = ("oriental3", "weak_not_strong", "circle", "self_loop")
REQUIRE_LEVELS = ("apc", "wpc", "pc")
GOLDEN_REQUIRE = {
    ('circle', 'apc', 'structured'): '30f8015d1bdce7e603d6ad40d9d9b0f572bc935426f5ac09a481abbc057a711c',
    ('circle', 'apc', 'text'): '4747d2163ec3ec2236041517fea5385a4165c5e0d483968ab4ed7d5355c2b15c',
    ('circle', 'pc', 'structured'): 'e594d4225d4bfaa8c5925341237eccad9b52f6e10cad431017e64a746ed770ef',
    ('circle', 'pc', 'text'): 'a594f755273d7752d0b8aafc6876a3458fa2efa0427e420941327b74db93aa13',
    ('circle', 'wpc', 'structured'): 'e594d4225d4bfaa8c5925341237eccad9b52f6e10cad431017e64a746ed770ef',
    ('circle', 'wpc', 'text'): 'a594f755273d7752d0b8aafc6876a3458fa2efa0427e420941327b74db93aa13',
    ('oriental3', 'apc', 'structured'): 'ef7b79bbc2810a23eaad26ab46623589981c085770958066a7a5d7f0a018c3f5',
    ('oriental3', 'apc', 'text'): '346867d572449c5ecdaa3466d4362e3c4e61d50efb5e286b0cc89bf798841bd5',
    ('oriental3', 'pc', 'structured'): 'ef7b79bbc2810a23eaad26ab46623589981c085770958066a7a5d7f0a018c3f5',
    ('oriental3', 'pc', 'text'): '346867d572449c5ecdaa3466d4362e3c4e61d50efb5e286b0cc89bf798841bd5',
    ('oriental3', 'wpc', 'structured'): 'ef7b79bbc2810a23eaad26ab46623589981c085770958066a7a5d7f0a018c3f5',
    ('oriental3', 'wpc', 'text'): '346867d572449c5ecdaa3466d4362e3c4e61d50efb5e286b0cc89bf798841bd5',
    ('self_loop', 'apc', 'structured'): '8e4fc4750d57d664fcf55c9b654f9264f1476ed883759d355d4b0ef3787c57ca',
    ('self_loop', 'apc', 'text'): 'cd14563414407c9ae25e8ae9dc217166f6ea6fed6758b4337f6edd9442403018',
    ('self_loop', 'pc', 'structured'): '8e4fc4750d57d664fcf55c9b654f9264f1476ed883759d355d4b0ef3787c57ca',
    ('self_loop', 'pc', 'text'): 'cd14563414407c9ae25e8ae9dc217166f6ea6fed6758b4337f6edd9442403018',
    ('self_loop', 'wpc', 'structured'): '8e4fc4750d57d664fcf55c9b654f9264f1476ed883759d355d4b0ef3787c57ca',
    ('self_loop', 'wpc', 'text'): 'cd14563414407c9ae25e8ae9dc217166f6ea6fed6758b4337f6edd9442403018',
    ('weak_not_strong', 'apc', 'structured'): 'c7c03ea5d9e080eda8885051b90ef5b283caa25d6b7a27154a2459f6a2a24879',
    ('weak_not_strong', 'apc', 'text'): '7c5219c955526cb7bf04f1353f9434144a2366ff250c04324ae2698d0d76d320',
    ('weak_not_strong', 'pc', 'structured'): '5e4278e7d6ffa323344fd37f9923e84c495f80ca2e6be94e62b5731b553756c6',
    ('weak_not_strong', 'pc', 'text'): '53dd1714ce23ee478c683308f9ba1cc195461060d7126369c075af36b02facd2',
    ('weak_not_strong', 'wpc', 'structured'): 'c7c03ea5d9e080eda8885051b90ef5b283caa25d6b7a27154a2459f6a2a24879',
    ('weak_not_strong', 'wpc', 'text'): '7c5219c955526cb7bf04f1353f9434144a2366ff250c04324ae2698d0d76d320',
}
#: generate -o: the families of GENERATE_CASES and a size past oriental's bound.
GENERATE_OUT_CASES = [*GENERATE_CASES, ("oriental", 9)]
GOLDEN_GENERATE_OUT = {
    ('globe', 3): '373b13c5359bb8ceebb9617bfc78585aba6af2cc79659404e00d6e16774e0433',
    ('oriental', 3): 'be9a5b9fa5569514e961fd646f271b3fca0e2850dc4fad06b979bd731972d563',
    ('cube', 2): 'b3f447fbd686bfc23afe42252449dfe1f5d4f303fbfde3da5fa0ea951de87273',
    ('globe', -1): '9181efd3e83bafb896b714aad2e6d04698152b226f5adac6b0e5547c8e9ea248',
    ('oriental', 9): '612ceac0af6720af01ee377c99459cabe0664c79434ae1680d884b680d6af0fb',
}


@pytest.mark.parametrize("style", BOTH)
@pytest.mark.parametrize("level", REQUIRE_LEVELS)
@pytest.mark.parametrize("name", REQUIRE_STRUCTURES)
def test_validate_require_output(capsys, structure_files, name, level, style):
    template = ["validate", "{file}", "--require", level]
    template += ["--format", "structured"] if style == "structured" else []
    digest = cell_command_digest(capsys, template, [{}], file=structure_files[name]["file"])
    assert digest == GOLDEN_REQUIRE[(name, level, style)]


@pytest.mark.parametrize("family_name, n", GENERATE_OUT_CASES)
def test_generate_to_a_file(capsys, tmp_path, family_name, n):
    out = tmp_path / "out.json"
    code = main(["generate", "--family", family_name, "--n", str(n), "-o", str(out)])
    captured = capsys.readouterr()
    written = out.read_bytes() if out.exists() else b"(no file)"
    digest = hashlib.sha256(f"{code}\n{captured.out}\n{captured.err}\n".encode() + written).hexdigest()
    assert digest == GOLDEN_GENERATE_OUT[(family_name, n)]


#: Commands that write -o: {out} is the path, {m} the identity of globe(1).
WRITE_COMMANDS = {
    "generate": ["generate", "--family", "globe", "--n", "1", "-o", "{out}"],
    "morphism compose": ["morphism", "compose", "{m}", "{m}", "-o", "{out}"],
}


@pytest.mark.parametrize("where", ["a directory", "a missing directory"])
@pytest.mark.parametrize("command", sorted(WRITE_COMMANDS))
def test_an_unwritable_output_is_a_usage_error(capsys, tmp_path, command, where):
    # the errno text differs between platforms and is not pinned
    from paritykit.morphisms import identity_morphism

    out = tmp_path if where == "a directory" else tmp_path / "missing" / "dir" / "x.json"
    m = tmp_path / "id.json"
    m.write_text(fixtures.dumps(identity_morphism(family("globe", 1)), name="id"))
    code = main([arg.format(out=out, m=m) for arg in WRITE_COMMANDS[command]])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert not (tmp_path / "missing").exists()


# ---------------------------------------------------------------------------
# usage errors: exit 2, nothing on stdout, and on stderr argparse's usage
# line and error prefix; the rest of its wording differs across Python
# versions and is not pinned


#: Per case, its argv ({file} a structure, {cell} a cell) and the program
#: name that the usage line and the error prefix give.
USAGE_ERRORS = {
    "no subcommand": ([], "paritykit"),
    "unknown subcommand": (["frobnicate", "{file}"], "paritykit"),
    "missing argument": (["face", "{file}", "-k", "0", "--sign", "source"], "paritykit face"),
    "bad sign": (["face", "{file}", "--cell", "{cell}", "-k", "0", "--sign", "up"], "paritykit face"),
    "bad family": (["generate", "--family", "torus", "--n", "2"], "paritykit generate"),
    "max-dim not an integer": (["cells", "{file}", "--max-dim", "two"], "paritykit cells"),
}


@pytest.mark.parametrize("case", sorted(USAGE_ERRORS))
def test_usage_error(capsys, structure_files, case):
    argv, prog = USAGE_ERRORS[case]
    files = structure_files["globe3"]
    with pytest.raises(SystemExit) as exc:
        main([arg.format(file=files["file"], cell=files["cells"][0]["cell"]) for arg in argv])
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert (exc.value.code, captured.out) == (2, "")
    assert lines[0].startswith(f"usage: {prog} ") and lines[-1].startswith(f"{prog}: error: ")


#: A negative -k does not depend on the input, so it is a usage error
#: that the command reports itself, in one line.
NEGATIVE_K = {
    "face": ["face", "{file}", "--cell", "{cell}", "-k", "-1", "--sign", "source"],
    "compose": ["compose", "{file}", "--cells", "{cell}", "{cell}", "-k", "-1"],
}


@pytest.mark.parametrize("command", sorted(NEGATIVE_K))
def test_negative_k_is_a_usage_error(capsys, structure_files, command):
    files = structure_files["globe3"]
    code = main([arg.format(file=files["file"], cell=files["cells"][0]["cell"]) for arg in NEGATIVE_K[command]])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", "error: k must be >= 0, got -1\n")
