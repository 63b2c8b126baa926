import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import paritykit
from conftest import FIXTURE_DIR, lift
from paritykit import fixtures
from paritykit.cli import build_parser, main
from paritykit.generators import globe, oriental
from paritykit.multiset import Multiset
from paritykit.parity_core import AdditiveParityStructure, ParityStructure

CIRCLE = str(FIXTURE_DIR / "circle.json")
WNS = str(FIXTURE_DIR / "weak_not_strong.json")
MORPHISM = str(FIXTURE_DIR / "morphism_globe1_to_oriental2.json")
COLLAPSE = str(FIXTURE_DIR / "morphism_collapse_globe1.json")
SRC = str(Path(paritykit.__file__).resolve().parents[1])


@pytest.fixture()
def oriental2_file(tmp_path):
    path = tmp_path / "oriental2.json"
    path.write_text(fixtures.dumps(oriental(2), name="oriental-2"))
    return str(path)


@pytest.fixture()
def atom012_file(tmp_path, oriental2_file):
    from paritykit import cells

    o2 = oriental(2)
    path = tmp_path / "atom012.json"
    path.write_text(fixtures.dumps(cells.atom(o2, o2.gen("012")), name="atom-012"))
    return str(path)


class TestValidate:
    def test_generate_then_validate(self, capsys, tmp_path):
        out = tmp_path / "o2.json"
        assert main(["generate", "--family", "oriental", "--n", "2", "-o", str(out)]) == 0
        assert main(["validate", str(out)]) == 0
        captured = capsys.readouterr()
        assert "classification: parity complex" in captured.out

    def test_require_met_and_unmet(self, capsys, oriental2_file):
        assert main(["validate", oriental2_file, "--require", "pc"]) == 0
        assert main(["validate", CIRCLE, "--require", "wpc"]) == 1
        captured = capsys.readouterr()
        assert "a → b → a" in captured.out

    def test_circle_meets_apc(self):
        assert main(["validate", CIRCLE, "--require", "apc"]) == 0

    def test_weak_not_strong_requirements(self):
        assert main(["validate", WNS, "--require", "wpc"]) == 0
        assert main(["validate", WNS, "--require", "pc"]) == 1

    def test_structured_output_is_json(self, capsys, oriental2_file):
        assert main(["validate", oriental2_file, "--format", "structured"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["classification"] == "parity complex"
        assert payload["flags"]["strongly_loop_free"] is True

    def test_stdin_dash(self, capsys, monkeypatch, oriental2_file):
        import io

        text = Path(oriental2_file).read_text()
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        assert main(["classify", "-"]) == 0
        assert capsys.readouterr().out.strip() == "parity complex"

    def test_malformed_input_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert main(["validate", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_file_exits_2(self, capsys):
        assert main(["validate", "/does/not/exist.json"]) == 2

    @pytest.mark.parametrize("command", [["validate"], ["chain", "--check"], ["roundtrip"]])
    def test_dim_beyond_max_dim_exits_2(self, capsys, tmp_path, command):
        # refused at load: otherwise the per-level work grows with the dimension
        doc = {
            "schema_version": 1,
            "name": "deep",
            "kind": "parity_structure",
            "payload": {"elements": [{"id": "x", "dim": 100000, "neg": [], "pos": []}]},
        }
        path = tmp_path / "deep.json"
        path.write_text(json.dumps(doc))
        assert main([command[0], str(path), *command[1:]]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: deep/x: dim must be at most 64, got 100000\n"

    def test_count_beyond_a_machine_word_exits_2(self, capsys, tmp_path):
        doc = {
            "schema_version": 1,
            "name": "huge",
            "kind": "additive_parity_structure",
            "payload": {
                "elements": [
                    {"id": "v", "dim": 0},
                    {"id": "w", "dim": 0},
                    {"id": "x", "dim": 1, "neg": [["v", 2**63]], "pos": ["w"]},
                ]
            },
        }
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: huge/x: count of 'v'")

    def test_face_image_beyond_a_machine_word_is_reported(self, capsys, tmp_path):
        # every count fits, but the face image of G counts x 2^64 times
        big = 2**32
        doc = {
            "schema_version": 1,
            "name": "products",
            "kind": "additive_parity_structure",
            "payload": {
                "elements": [
                    {"id": "v", "dim": 0},
                    {"id": "w", "dim": 0},
                    {"id": "x", "dim": 1, "neg": ["v"], "pos": ["w"]},
                    {"id": "y", "dim": 1, "neg": ["v"], "pos": ["w"]},
                    {"id": "F", "dim": 2, "neg": [["x", big]], "pos": [["y", big]]},
                    {"id": "G", "dim": 3, "neg": [["F", big]], "pos": []},
                ]
            },
        }
        path = tmp_path / "products.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert "classification: parity structure only" in out
        assert f"FAIL unital at G: iterated boundaries of G reach {{v:{big * big}}} and {{}}" in out
        assert main(["validate", str(path), "--require", "apc"]) == 1
        assert capsys.readouterr().err == ""


class TestCells:
    def test_count_only(self, capsys, oriental2_file):
        assert main(["cells", oriental2_file, "--max-dim", "2", "--count-only"]) == 0
        assert capsys.readouterr().out.strip() == "3 7 8"

    def test_structured_cells(self, capsys, oriental2_file):
        assert main(["cells", oriental2_file, "--max-dim", "1", "--format", "structured"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts"] == [3, 7]
        assert len(payload["cells"]) == 10

    def test_count_only_is_capped(self, capsys, oriental2_file, monkeypatch):
        monkeypatch.setenv("PARITYKIT_MAX_CELLS", "5")
        assert main(["cells", oriental2_file, "--max-dim", "2", "--count-only"]) == 2
        assert "exceeded 5 cells" in capsys.readouterr().err

    def test_enumeration_rejected_on_circle(self, capsys):
        assert main(["cells", CIRCLE, "--max-dim", "1"]) == 2

    def test_negative_max_dim_exits_2(self, capsys, oriental2_file):
        assert main(["cells", oriental2_file, "--max-dim", "-3"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "max_dim" in err
        assert main(["freeness", oriental2_file, "--max-dim", "-1"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "max_dim" in err


class TestCellCommands:
    def test_atom(self, capsys, oriental2_file):
        assert main(["atom", oriental2_file, "012", "--format", "structured"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["payload"]["neg"] == [["0"], ["02"], ["012"]]

    def test_face(self, capsys, oriental2_file, atom012_file):
        rc = main(
            ["face", oriental2_file, "--cell", atom012_file, "-k", "1",
             "--sign", "target", "--format", "structured"]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["payload"]["neg"] == [["0"], ["01", "12"]]

    def test_requests_outside_the_domain_exit_1(self, capsys, tmp_path, oriental2_file, atom012_file):
        # a well-formed cell with an index or dimension the operation does
        # not take: the reason on stdout, exit 1, as for a failed check
        from paritykit import cells as cells_mod

        o2 = oriental(2)
        point = tmp_path / "point.json"
        point.write_text(fixtures.dumps(cells_mod.atom(o2, o2.gen("0")), name="point"))
        runs = [
            (["face", oriental2_file, "--cell", atom012_file, "-k", "2", "--sign", "source"],
             "cannot take face: face index 2 out of range for a 2-cell\n"),
            (["face", oriental2_file, "--cell", str(point), "-k", "0", "--sign", "target"],
             "cannot take face: face index 0 out of range for a 0-cell\n"),
            (["compose", oriental2_file, "--cells", atom012_file, atom012_file, "-k", "2"],
             "not composable: composition index 2 out of range for 2-cells\n"),
        ]
        for argv, out in runs:
            for style in ([], ["--format", "structured"]):
                assert main(argv + style) == 1
                assert capsys.readouterr() == (out, "")
        assert main(["decompose", oriental2_file, "--cell", str(point)]) == 1
        out, err = capsys.readouterr()
        assert out.startswith("cannot decompose: ") and err == ""

    def test_compose_and_non_composable(self, capsys, tmp_path, oriental2_file):
        from paritykit import cells as cells_mod

        o2 = oriental(2)
        a01 = tmp_path / "a01.json"
        a12 = tmp_path / "a12.json"
        a01.write_text(fixtures.dumps(cells_mod.atom(o2, o2.gen("01")), name="a01"))
        a12.write_text(fixtures.dumps(cells_mod.atom(o2, o2.gen("12")), name="a12"))
        rc = main(
            ["compose", oriental2_file, "--cells", str(a01), str(a12), "-k", "0",
             "--format", "structured"]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["payload"]["neg"] == [["0"], ["01", "12"]]
        rc = main(["compose", oriental2_file, "--cells", str(a12), str(a01), "-k", "0"])
        assert rc == 1
        assert "not composable" in capsys.readouterr().out

    def test_decompose(self, capsys, tmp_path, oriental2_file):
        from paritykit import cells as cells_mod

        o2 = oriental(2)
        path_cell = cells_mod.compose(
            cells_mod.atom(o2, o2.gen("01")), cells_mod.atom(o2, o2.gen("12")), 0
        )
        cf = tmp_path / "path.json"
        cf.write_text(fixtures.dumps(path_cell, name="path"))
        assert main(["decompose", oriental2_file, "--cell", str(cf),
                     "--format", "structured"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["slices"]) == 2

    def test_composite_breaking_the_subset_guard_exits_2(self, capsys, tmp_path):
        # over the circle, a+b is a subset but a+b+a is not: compose raises
        # InternalCheckError, and the CLI reports it without a traceback
        from paritykit import cells as cells_mod

        circle = fixtures.loads(Path(CIRCLE).read_text()).value
        a, b = (cells_mod.atom(circle, circle.gen(n)) for n in ("a", "b"))
        loop, edge = tmp_path / "loop.json", tmp_path / "a.json"
        loop.write_text(fixtures.dumps(cells_mod.compose(a, b, 0), name="loop"))
        edge.write_text(fixtures.dumps(a, name="a"))
        assert main(["compose", CIRCLE, "--cells", str(loop), str(edge), "-k", "0"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "not a subset" in err

    def test_face_and_compose_without_an_augmentation(self, capsys, tmp_path):
        # u, v; a: u -> 2v is not normal, so its complex has no
        # augmentation: cells are checked in "rho" mode, as decompose does
        from paritykit import cells as cells_mod

        s = AdditiveParityStructure.build([("u", 0, [], []), ("v", 0, [], []), ("a", 1, ["u"], ["v", "v"])])
        struct, edge, point = tmp_path / "s.json", tmp_path / "a.json", tmp_path / "v.json"
        struct.write_text(fixtures.dumps(s, name="s"))
        a = cells_mod.atom(s, s.gen("a"))
        edge.write_text(fixtures.dumps(a, name="a"))
        point.write_text(fixtures.dumps(cells_mod.identity(cells_mod.face(a, 0, "target")), name="v"))
        assert main(["face", str(struct), "--cell", str(edge), "-k", "0", "--sign", "source"]) == 0
        assert capsys.readouterr() == ("dim: 0\nneg: {u}\npos: {u}\n", "")
        assert main(["compose", str(struct), "--cells", str(edge), str(point), "-k", "0"]) == 0
        assert capsys.readouterr() == ("dim: 1\nneg: {u}, {a}\npos: {v:2}, {a}\n", "")
        bad = tmp_path / "bad.json"
        v = Multiset.of(s.gen("v"))
        bad.write_text(fixtures.dumps(cells_mod.CellTable(a.neg, (v, a.top)), name="bad"))
        assert main(["face", str(struct), "--cell", str(bad), "-k", "0", "--sign", "source"]) == 1
        assert main(["compose", str(struct), "--cells", str(bad), str(point), "-k", "0"]) == 1
        out, err = capsys.readouterr()
        assert err == "" and out == (
            "invalid cell: negative column 1 has boundary -u +2v, expected -u +v\n"
            "invalid first cell: negative column 1 has boundary -u +2v, expected -u +v\n"
        )


class TestChainRoundtripFreeness:
    def test_chain_check(self, capsys, oriental2_file):
        assert main(["chain", oriental2_file, "--check"]) == 0
        out = capsys.readouterr().out
        assert "dd zero: yes" in out

    def test_chain_boundaries(self, capsys, oriental2_file):
        assert main(["chain", oriental2_file]) == 0
        assert "d(012) = +01 -02 +12" in capsys.readouterr().out

    def test_roundtrip(self, oriental2_file):
        assert main(["roundtrip", oriental2_file]) == 0
        assert main(["roundtrip", CIRCLE]) == 0

    def test_roundtrip_builds_one_additive_view(self, monkeypatch, tmp_path):
        from paritykit.parity_core import ParityStructure

        path = tmp_path / "oriental3.json"
        path.write_text(fixtures.dumps(oriental(3), name="oriental-3"))
        built = []
        to_additive = ParityStructure.to_additive
        monkeypatch.setattr(
            ParityStructure, "to_additive", lambda self: built.append(id(self)) or to_additive(self)
        )
        assert main(["roundtrip", str(path)]) == 0
        assert len(built) == 1
        path.write_text(fixtures.dumps(oriental(3).to_additive(), name="oriental-3"))
        built.clear()
        assert main(["roundtrip", str(path)]) == 0
        assert built == []

    def test_freeness(self, capsys, oriental2_file):
        assert main(["freeness", oriental2_file, "--max-dim", "2"]) == 0
        assert "reached from atoms: 18" in capsys.readouterr().out

    def test_freeness_evaluates_each_shared_witness_node_once(self, monkeypatch, tmp_path):
        from paritykit import cells

        path = tmp_path / "oriental3.json"
        path.write_text(fixtures.dumps(oriental(3), name="oriental-3"))
        seen, composites, stack = set(), 0, list(cells.atom_closure(oriental(3), 3).values())
        while stack:
            expr = stack.pop()
            if id(expr) not in seen:
                seen.add(id(expr))
                composites += isinstance(expr, cells.Composite)
                stack.extend(getattr(expr, name) for name in ("inner", "left", "right") if hasattr(expr, name))
        calls = []
        real = cells.compose
        monkeypatch.setattr(cells, "compose", lambda *args: calls.append(args) or real(*args))
        assert main(["freeness", str(path), "--max-dim", "3"]) == 0
        assert len(calls) == composites > 0

    def test_freeness_wrong_witness_exits_1(self, capsys, monkeypatch, oriental2_file):
        from paritykit import cells

        real = cells.identity
        monkeypatch.setattr(cells, "identity", lambda table: real(real(table)))
        assert main(["freeness", oriental2_file, "--max-dim", "1"]) == 1
        assert main(["freeness", oriental2_file, "--max-dim", "1", "--format", "structured"]) == 1
        assert '"witnesses_reevaluate": false' in capsys.readouterr().out

    def test_freeness_cap_exits_2(self, capsys, monkeypatch, oriental2_file):
        monkeypatch.setenv("PARITYKIT_MAX_CELLS", "5")
        assert main(["freeness", oriental2_file, "--max-dim", "2"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "atom closure reached 6 cells, more than 5" in err


class TestMorphismCommands:
    def test_validate(self, capsys):
        assert main(["morphism", "validate", MORPHISM]) == 0
        out = capsys.readouterr().out
        assert "valid: yes" in out and "strict movement: yes" in out

    def test_compose_not_composable(self, capsys, tmp_path):
        out = tmp_path / "composed.json"
        assert main(["morphism", "compose", COLLAPSE, COLLAPSE, "-o", str(out)]) == 1
        assert "not composable" in capsys.readouterr().out

    def test_compose_identity(self, capsys, tmp_path):
        from paritykit.morphisms import identity_morphism

        o2 = oriental(2)
        ident = tmp_path / "ident.json"
        ident.write_text(fixtures.dumps(identity_morphism(o2), name="id"))
        out = tmp_path / "composed.json"
        assert main(["morphism", "compose", str(ident), str(ident), "-o", str(out)]) == 0
        fixture = fixtures.loads(out.read_text())
        assert fixture.kind == "morphism"

    def test_apply(self, capsys, tmp_path):
        from paritykit import cells as cells_mod
        from paritykit.generators import globe

        g1 = globe(1)
        cf = tmp_path / "top.json"
        cf.write_text(fixtures.dumps(cells_mod.atom(g1, g1.gen("top")), name="top"))
        assert main(["morphism", "apply", MORPHISM, "--cell", str(cf),
                     "--format", "structured"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["payload"]["neg"] == [["0"], ["01", "12"]]

    def test_validate_reports_an_overflowing_face_image(self, capsys, tmp_path):
        from conftest import overflow_map
        from paritykit.multiset import MAX_COUNT

        path = tmp_path / "big.json"
        path.write_text(fixtures.dumps(overflow_map(), name="big"))
        assert main(["morphism", "validate", str(path)]) == 1
        out, err = capsys.readouterr()
        assert err == "" and out == (
            "valid: no\nnormal: yes\n"
            f"FAIL: image of a does not move the image of its faces: {{a:{MAX_COUNT}}} vs {{u}} -> {{v}}\n"
            f"FAIL: image of x does not move the image of its faces: {{x}} vs {{a:{2 * MAX_COUNT}, b}} -> {{c}}\n"
        )

    def test_composite_beyond_max_count_is_not_composable(self, capsys, tmp_path):
        from conftest import overflow_map
        from paritykit.multiset import MAX_COUNT

        path = tmp_path / "big.json"
        path.write_text(fixtures.dumps(overflow_map(), name="big"))
        out_path = tmp_path / "composite.json"
        assert main(["morphism", "compose", str(path), str(path), "--output", str(out_path)]) == 1
        out, err = capsys.readouterr()
        assert (out, err) == (f"not composable: count for 'a' exceeds {MAX_COUNT}\n", "")
        assert not out_path.exists()

    def test_image_beyond_max_count_cannot_be_applied(self, capsys, tmp_path):
        from conftest import overflow_path
        from paritykit.multiset import MAX_COUNT

        f, through = overflow_path()
        path, cell = tmp_path / "big.json", tmp_path / "through.json"
        path.write_text(fixtures.dumps(f, name="big"))
        cell.write_text(fixtures.dumps(through, name="through"))
        assert main(["morphism", "apply", str(path), "--cell", str(cell)]) == 1
        out, err = capsys.readouterr()
        assert (out, err) == (f"cannot apply: count for 'a' exceeds {MAX_COUNT}\n", "")


class TestDeterminism:
    def test_generate_bytes_stable(self, capsys):
        assert main(["generate", "--family", "cube", "--n", "2"]) == 0
        first = capsys.readouterr().out
        assert main(["generate", "--family", "cube", "--n", "2"]) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_generate_bound(self, capsys):
        assert main(["generate", "--family", "oriental", "--n", "9"]) == 2


class TestStructuredOutput:
    """Structured stdout is the bytes of ``json.dumps(payload, indent=2,
    sort_keys=True)`` plus a newline for every subcommand that prints a
    report payload, with booleans, nulls and escaped names among them."""

    COMMANDS = [
        ["validate", "{o2}"], ["validate", CIRCLE], ["validate", "{odd}"], ["classify", WNS],
        ["chain", "{o2}"], ["chain", "{odd}"], ["chain", "{o2}", "--check"], ["chain", "{odd}", "--check"],
        ["roundtrip", "{odd}"], ["cells", "{o2}", "--max-dim", "2"], ["cells", WNS, "--max-dim", "2", "--count-only"],
        ["freeness", "{o2}", "--max-dim", "2"], ["decompose", "{o2}", "--cell", "{atom}"],
        ["morphism", "validate", MORPHISM], ["morphism", "validate", COLLAPSE, "--mode", "additive"],
    ]

    @pytest.mark.parametrize("command", COMMANDS, ids=lambda c: " ".join(Path(a).stem for a in c))
    def test_bytes_of_json_dumps(self, capsys, tmp_path, oriental2_file, atom012_file, command):
        odd = AdditiveParityStructure.build(
            [("é", 0, [], []), ('a"b', 0, [], []), ("Ω", 1, {"é": 2}, ['a"b']), ("𝔸", 1, ["é"], ['a"b'])]
        )
        odd_file = tmp_path / "odd.json"
        odd_file.write_text(fixtures.dumps(odd, name="ñ"))
        files = {"o2": oriental2_file, "atom": atom012_file, "odd": str(odd_file)}
        main([a.format(**files) for a in command] + ["--format", "structured"])
        out = capsys.readouterr().out
        assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


class TestRepeatedKeys:
    def test_exit_2_naming_the_key(self, capsys, tmp_path):
        text = Path(MORPHISM).read_text()
        path = tmp_path / "twice.json"
        path.write_text(text.replace('      "1": {\n', '      "1": {"top": ["02"]},\n      "1": {\n'))
        assert main(["morphism", "validate", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: key '1' is repeated in one JSON object\n"


def run_cold(*args, timeout=120, **env):
    """Run `python *args` in a fresh interpreter that imports this checkout."""
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        encoding="utf-8",
        env={**os.environ, "PYTHONPATH": path, "PYTHONIOENCODING": "utf-8", **env},
        timeout=timeout,
    )


def assert_one_line_error(proc):
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


class TestColdProcess:
    """One fresh interpreter per call, the way a shell script runs the CLI,
    so that imports made inside a subcommand run on their error paths too."""

    def test_validate_and_classify_load_only_the_structure_core(self):
        script = (
            "import json, sys\n"
            "before = set(sys.modules)\n"
            "import paritykit\n"
            "bare = sorted(set(sys.modules) - before)\n"
            "from paritykit.cli import main\n"
            f"codes = [main(['validate', {CIRCLE!r}]), main(['classify', {CIRCLE!r}])]\n"
            "print(json.dumps([bare, codes, sorted(set(sys.modules) - before)]))\n"
        )
        proc = run_cold("-c", script)
        assert proc.returncode == 0, proc.stderr
        bare, codes, loaded = json.loads(proc.stdout.splitlines()[-1])
        assert [m for m in bare if m.startswith("paritykit")] == ["paritykit"]
        assert codes == [0, 0]
        assert "paritykit.parity_core" in loaded and "paritykit.fixtures" in loaded
        unused = {
            "paritykit.cells", "paritykit.morphisms", "paritykit.chain", "paritykit.generators", "dataclasses"
        }
        assert unused.isdisjoint(loaded)

    def test_morphism_validate_and_compose_load_neither_cells_nor_chain(self, tmp_path):
        from paritykit.generators import globe
        from paritykit.morphisms import identity_morphism

        ident = tmp_path / "identity.json"
        ident.write_text(fixtures.dumps(identity_morphism(globe(1)), name="id-globe1"))
        out = str(tmp_path / "composed.json")
        script = (
            "import json, sys\n"
            "before = set(sys.modules)\n"
            "from paritykit.cli import main\n"
            f"codes = [main(['morphism', 'validate', {MORPHISM!r}]),"
            f" main(['morphism', 'compose', {str(ident)!r}, {MORPHISM!r}, '-o', {out!r}])]\n"
            "print(json.dumps([codes, sorted(set(sys.modules) - before)]))\n"
        )
        proc = run_cold("-c", script)
        assert proc.returncode == 0, proc.stderr
        codes, loaded = json.loads(proc.stdout.splitlines()[-1])
        assert codes == [0, 0]
        assert "paritykit.morphisms" in loaded
        assert {"paritykit.cells", "paritykit.chain"}.isdisjoint(loaded)

    def test_enumeration_cap_exits_2(self, oriental2_file):
        proc = run_cold(
            "-m", "paritykit.cli", "freeness", oriental2_file, "--max-dim", "2",
            PARITYKIT_MAX_CELLS="1",
        )
        assert_one_line_error(proc)
        assert "more than 1" in proc.stderr

    def test_max_dim_on_a_structure_without_points(self, tmp_path):
        # no level of the search holds a cell, so the work must not grow
        # with --max-dim; the count line alone may exceed the cell cap
        path = tmp_path / "empty.json"
        path.write_text(fixtures.dumps(ParityStructure.build([]), name="empty"))
        proc = run_cold("-m", "paritykit.cli", "cells", str(path), "--max-dim", "64", "--count-only", timeout=20)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, " ".join(["0"] * 65) + "\n", "")
        proc = run_cold("-m", "paritykit.cli", "cells", str(path), "--max-dim", "4", timeout=20)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0 0 0 0 0\n", "")
        proc = run_cold("-m", "paritykit.cli", "cells", str(path), "--max-dim", "4", PARITYKIT_MAX_CELLS="4", timeout=20)
        assert_one_line_error(proc)
        assert proc.stderr == (
            "error: --max-dim 4 asks for 5 counts, more than the cap of 4 cells (set PARITYKIT_MAX_CELLS to raise)\n"
        )
        # as many counts as the cap allows cells is within it
        proc = run_cold("-m", "paritykit.cli", "cells", str(path), "--max-dim", "3", PARITYKIT_MAX_CELLS="4", timeout=20)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0 0 0 0\n", "")
        proc = run_cold("-m", "paritykit.cli", "freeness", str(path), "--max-dim", "64", timeout=20)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "cells: 0\nreached from atoms: 0\n", "")

    @pytest.mark.parametrize("command", [["cells"], ["cells", "--count-only"], ["freeness"]])
    def test_max_dim_above_the_largest_dimension_exits_2(self, tmp_path, command):
        # a point has one cell in each dimension up to --max-dim, 65 at the bound
        path = tmp_path / "point.json"
        path.write_text(fixtures.dumps(globe(0), name="point"))
        command = [command[0], str(path), *command[1:]]
        proc = run_cold("-m", "paritykit.cli", *command, "--max-dim", "64", timeout=20)
        assert proc.returncode == 0 and proc.stderr == ""
        assert proc.stdout.splitlines()[0] == ("cells: 65" if command[0] == "freeness" else " ".join(["1"] * 65))
        proc = run_cold("-m", "paritykit.cli", *command, "--max-dim", "65", timeout=20)
        assert_one_line_error(proc)
        assert proc.stderr == "error: max_dim must be at most 64, got 65\n"

    def test_non_composable_morphisms_exit_1(self, tmp_path):
        out = tmp_path / "composed.json"
        proc = run_cold("-m", "paritykit.cli", "morphism", "compose", COLLAPSE, COLLAPSE, "-o", str(out))
        assert proc.returncode == 1 and proc.stderr == ""
        assert proc.stdout.startswith("not composable: ")
        assert not out.exists()

    def test_malformed_fixture_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema_version": 1, "kind": "cell", "payload": {"dim": 0}}')
        proc = run_cold("-m", "paritykit.cli", "face", CIRCLE, "--cell", str(bad), "-k", "0", "--sign", "source")
        assert_one_line_error(proc)


class TestParser:
    """A call fills in only its own subcommand's parser; what any parser
    prints must not depend on that."""

    @staticmethod
    def subparsers(parser):
        return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices

    def test_help_matches_the_full_parser(self):
        full = build_parser()
        assert build_parser("nosuch").format_help() == full.format_help()
        for name, sub in self.subparsers(full).items():
            assert self.subparsers(build_parser(name))[name].format_help() == sub.format_help()


class TestContractFuzz:
    """Seeded single-field mutations of structure fixtures, run through
    every structure subcommand: the exit code is 0, 1 or 2, nothing
    escapes, and stderr is written exactly on exit 2."""

    COMMANDS = (
        ["validate"], ["classify"], ["chain"], ["chain", "--check"], ["roundtrip"],
        ["cells", "--max-dim", "2"], ["freeness", "--max-dim", "2"], ["atom"],
    )

    @staticmethod
    def documents():
        from paritykit.generators import cube, globe

        structs = [globe(n) for n in range(4)] + [oriental(n) for n in range(4)] + [cube(n) for n in range(3)]
        texts = [fixtures.dumps(s, name="s") for s in structs]
        texts += [fixtures.dumps(s.to_additive(), name="a") for s in structs]
        texts += [(FIXTURE_DIR / f"{name}.json").read_text() for name in ("circle", "weak_not_strong")]
        return [json.loads(text) for text in texts]

    @staticmethod
    def mutate(doc, rng):
        """Change one field of one element, or the fixture kind."""
        field = rng.choice(("neg", "pos", "dim", "id", "kind"))
        if field == "kind":
            doc["kind"] = rng.choice(
                ["parity_structure", "additive_parity_structure", "cell", "morphism", "bogus", None, 3]
            )
            return
        elements = doc["payload"]["elements"]
        element = rng.choice(elements)
        other = rng.choice(elements)["id"]
        if field == "id":
            element["id"] = rng.choice([other, "", "fresh", 7, None, ["x"]])
        elif field == "dim":
            element["dim"] = rng.choice([element["dim"] - 1, element["dim"] + 1, -1, 0, 4, "1", None, 1.5, True])
        else:
            faces = element[field]
            element[field] = rng.choice([
                [], faces + [other], faces + ["nope"], faces + faces, [[other, 2]], [[other, -1]],
                [[other, 0]], {other: 1}, "x", None, [other, 2], [[other]],
            ])

    def test_mutated_fixtures_keep_the_exit_contract(self, tmp_path):
        import contextlib
        import io
        import random

        rng = random.Random(10)
        base = self.documents()
        path = tmp_path / "f.json"
        exits = set()
        for _ in range(100):
            doc = json.loads(json.dumps(rng.choice(base)))
            self.mutate(doc, rng)
            path.write_text(json.dumps(doc))
            elements = doc["payload"]["elements"]
            for command in self.COMMANDS:
                argv = [command[0], str(path), *command[1:]]
                if command == ["atom"]:
                    argv.append(str(rng.choice(elements)["id"]))
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main(argv)
                assert code in (0, 1, 2), (argv, doc)
                assert (code == 2) == bool(err.getvalue()), (argv, doc, err.getvalue())
                exits.add(code)
        assert exits == {0, 1, 2}


class TestCellContractFuzz:
    """Seeded single-field mutations of cell fixtures, run through face,
    compose and decompose over the structure they came from: the exit
    code is 0, 1 or 2, nothing escapes, and stderr is written exactly
    on exit 2."""

    @staticmethod
    def documents():
        """(structure text, cell documents over it): the atoms of each
        structure and their composites, so that the CLI composes cells
        two steps away from the atoms."""
        from itertools import product

        from paritykit import cells
        from paritykit.generators import cube, globe

        structs = [globe(2), oriental(2), oriental(3), cube(2)]
        structs += [s.to_additive() for s in structs]
        structs += [fixtures.loads((FIXTURE_DIR / f"{n}.json").read_text()).value for n in ("circle", "weak_not_strong")]
        out = []
        for s in structs:
            pool = [cells.atom(s, g) for g in s.all_generators() if g.dim]
            for x, y in product(list(pool), repeat=2):
                for k in range(min(x.dim, y.dim)):
                    try:
                        pool.append(cells.compose(lift(x, y.dim), lift(y, x.dim), k))
                    except (ValueError, RuntimeError):
                        pass
            docs = [json.loads(fixtures.dumps(c, name="c")) for c in pool]
            out.append((fixtures.dumps(s, name="s"), docs))
        return out

    @staticmethod
    def mutate(doc, rng):
        """Change one column, a row, the dimension or the fixture kind,
        or, as often, nothing: valid cells reach the cell operations."""
        field = rng.choice(("neg", "pos", "dim", "kind", None, None, None, None))
        payload = doc["payload"]
        if field == "kind":
            doc["kind"] = rng.choice(["parity_structure", "morphism", "bogus", None, 3])
        elif field == "dim":
            payload["dim"] = rng.choice([payload["dim"] - 1, payload["dim"] + 1, -1, "1", None, 1.5, True])
        elif field is not None:
            row = payload[field]
            k = rng.randrange(len(row))
            other = rng.choice([name for column in payload["neg"] for name in column])
            if rng.random() < 0.2:
                del row[k]
            else:
                row[k] = rng.choice([
                    [], row[k] + [other], row[k] + ["nope"], row[k] + row[k], [[other, 2]],
                    [[other, -1]], {other: 1}, "x", None, [[other]],
                ])

    def test_mutated_cell_fixtures_keep_the_exit_contract(self, tmp_path):
        import contextlib
        import io
        import random

        # a seed whose run composes a loop of the circle with an edge (see
        # test_composite_breaking_the_subset_guard_exits_2)
        rng = random.Random(14)
        base = self.documents()
        structure, first, second = (tmp_path / f"{n}.json" for n in ("s", "c1", "c2"))
        exits = set()
        for _ in range(200):
            text, docs = rng.choice(base)
            structure.write_text(text)
            for path in (first, second):
                doc = json.loads(json.dumps(rng.choice(docs)))
                self.mutate(doc, rng)
                path.write_text(json.dumps(doc))
            k = str(rng.choice([-1, 0, 1, 2]))
            sign = rng.choice(["source", "target"])
            for argv in (
                ["face", str(structure), "--cell", str(first), "-k", k, "--sign", sign],
                ["compose", str(structure), "--cells", str(first), str(second), "-k", k],
                ["decompose", str(structure), "--cell", str(first)],
            ):
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main(argv)
                assert code in (0, 1, 2), argv
                assert (code == 2) == bool(err.getvalue()), (argv, err.getvalue())
                exits.add(code)
        assert exits == {0, 1, 2}


class TestMorphismContractFuzz:
    """Seeded single-field mutations of morphism fixtures, run through
    morphism validate, compose and apply: the exit code is 0, 1 or 2,
    nothing escapes, and stderr is written exactly on exit 2."""

    @staticmethod
    def documents():
        """(morphism document, cell documents over its source): coface maps
        of orientals and identities, in both modes, over parity and
        additive structures, and the frozen maps."""
        from paritykit import cells
        from paritykit.generators import cube, globe
        from paritykit.morphisms import GradedMorphism, identity_morphism
        from paritykit.multiset import Multiset

        def coface(source, target, skip, mode):
            shift = lambda name: "".join(str(int(v) + (int(v) >= skip)) for v in name)
            images = {g: Multiset.of(target.gen(shift(g.name), g.dim)) for g in source.all_generators()}
            return GradedMorphism(source, target, images, mode)

        maps = [fixtures.loads(Path(path).read_text()).value for path in (MORPHISM, COLLAPSE)]
        for mode in ("weak_parity", "additive"):
            for n in (1, 2, 3):
                maps += [coface(oriental(n - 1), oriental(n), skip, mode) for skip in (0, n)]
                maps.append(coface(oriental(n - 1).to_additive(), oriental(n).to_additive(), n, mode))
            maps += [identity_morphism(s, mode) for s in (globe(2), cube(2), cube(2).to_additive())]
            maps.append(identity_morphism(fixtures.loads(Path(CIRCLE).read_text()).value, mode))
        out = []
        for f in maps:
            atoms = [cells.atom(f.source, g) for g in f.source.all_generators()]
            out.append((json.loads(fixtures.dumps(f, name="f")), [fixtures.dumps(c, name="c") for c in atoms]))
        return out

    @staticmethod
    def mutate(doc, rng):
        """Change the mode, one image, one element of the source or the
        target, or the fixture kind; or, as often, nothing."""
        field = rng.choice(("mode", "image", "source", "target", "kind", None, None, None))
        payload = doc["payload"]
        if field == "kind":
            doc["kind"] = rng.choice(["parity_structure", "cell", "bogus", None, 3])
        elif field == "mode":
            payload["mode"] = rng.choice(["additive", "weak_parity", "bogus", None, 3])
        elif field == "image":
            assignment = payload["assignment"]
            dim = rng.choice(sorted(assignment))
            name = rng.choice(sorted(assignment[dim]))
            image = assignment[dim][name]
            names = [el["id"] for el in payload["target"]["elements"] if str(el["dim"]) == dim]
            other = rng.choice(names or ["nope"])
            choice = rng.randrange(12)
            if choice == 0:
                del assignment[dim][name]
            elif choice == 1:
                assignment[dim]["nope"] = [other]
            elif choice == 2:
                assignment[str(int(dim) + 1)] = {name: [other]}
            elif choice == 3:
                assignment["x"] = {}
            else:
                assignment[dim][name] = rng.choice([
                    [], image + [other], image + ["nope"], image + image, [[other, 2]], [[other, -1]],
                    [[other, 2**63 - 1]], [[other, 2**63]], {other: 1}, "x", None, [[other]],
                ])
        elif field is not None:
            side = payload[field]
            elements = side["elements"]
            element = rng.choice(elements)
            other = rng.choice(elements)["id"]
            key = rng.choice(("neg", "pos", "dim", "id", "kind"))
            if key == "kind":
                side["kind"] = rng.choice(["parity_structure", "additive_parity_structure", "cell", None])
            elif key == "id":
                element["id"] = rng.choice([other, "", "fresh", 7, None])
            elif key == "dim":
                element["dim"] = rng.choice([element["dim"] - 1, element["dim"] + 1, -1, 65, "1", None, True])
            else:
                faces = element.get(key, [])
                element[key] = rng.choice([
                    [], faces + [other], faces + ["nope"], faces + faces, [[other, 2]], [[other, 0]],
                    {other: 1}, "x", None,
                ])

    def test_mutated_morphism_fixtures_keep_the_exit_contract(self, tmp_path):
        import contextlib
        import io
        import random

        rng = random.Random(12)
        base = self.documents()
        first, second, cell = (tmp_path / f"{n}.json" for n in ("f", "g", "c"))
        exits = set()
        for _ in range(150):
            doc, atoms = rng.choice(base)
            doc = json.loads(json.dumps(doc))
            self.mutate(doc, rng)
            first.write_text(json.dumps(doc))
            other, _ = rng.choice(base)
            second.write_text(json.dumps(rng.choice([doc, other])))
            cell.write_text(rng.choice(atoms))
            fmt = rng.choice(["text", "structured"])
            for argv in (
                ["morphism", "validate", str(first), "--format", fmt],
                ["morphism", "validate", str(first), "--mode", rng.choice(["additive", "weak_parity"])],
                ["morphism", "compose", str(first), str(second)],
                ["morphism", "apply", str(first), "--cell", str(cell), "--format", fmt],
            ):
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main(argv)
                assert code in (0, 1, 2), argv
                assert (code == 2) == bool(err.getvalue()), (argv, doc, err.getvalue())
                exits.add(code)
        assert exits == {0, 1, 2}
